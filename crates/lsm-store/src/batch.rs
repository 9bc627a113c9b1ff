//! Write batches: the unit of atomic, group-committed ingestion.
//!
//! A [`WriteBatch`] collects puts and deletes and hands them to
//! [`Db::write_batch`](crate::Db::write_batch) as one operation. The store
//! guarantees:
//!
//! * **one WAL frame per batch** — the batch either survives a crash whole
//!   or disappears whole; a torn tail write can never apply part of it
//!   (recovery drops the entire frame at the first CRC/decode failure);
//! * **consecutive timestamps** — all records of a batch are ordered
//!   contiguously, with no other writer's records interleaved;
//! * **group commit** — concurrent writers' batches are coalesced by a
//!   leader into a single write-lock acquisition (LevelDB-style
//!   leader/follower commit), so the per-commit costs are paid once per
//!   group rather than once per record.

use bytes::Bytes;

use crate::record::ValueKind;

/// One pending operation of a [`WriteBatch`].
#[derive(Debug, Clone)]
pub(crate) struct BatchOp {
    pub key: Bytes,
    pub value: Bytes,
    pub kind: ValueKind,
}

/// One writer's operations on their way through the commit queue. A
/// singleton put or delete rides inline: no vector is built for it.
#[derive(Debug)]
pub(crate) enum Ops {
    One(BatchOp),
    Many(Vec<BatchOp>),
}

impl Ops {
    pub(crate) fn as_slice(&self) -> &[BatchOp] {
        match self {
            Ops::One(op) => std::slice::from_ref(op),
            Ops::Many(ops) => ops,
        }
    }

    /// Hands every operation, in order, to `f`, leaving none behind.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(BatchOp)) {
        match std::mem::replace(self, Ops::Many(Vec::new())) {
            Ops::One(op) => f(op),
            Ops::Many(ops) => ops.into_iter().for_each(f),
        }
    }
}

/// An ordered collection of puts/deletes applied atomically.
///
/// # Examples
///
/// ```
/// use lsm_store::{Db, Options, WriteBatch};
/// use sgx_sim::Platform;
/// use sim_disk::{SimDisk, SimFs};
///
/// # fn main() -> Result<(), sim_disk::FsError> {
/// let platform = Platform::with_defaults();
/// let fs = SimFs::new(SimDisk::new(platform.clone()));
/// let env = lsm_store::StorageEnv::new(platform, fs, lsm_store::EnvConfig::default(), None);
/// let db = Db::open(env, Options::default(), None)?;
/// let mut batch = WriteBatch::new();
/// batch.put(b"a".as_slice(), b"1".as_slice());
/// batch.put(b"b".as_slice(), b"2".as_slice());
/// batch.delete(b"a".as_slice());
/// let timestamps = db.write_batch(batch)?;
/// assert_eq!(timestamps.len(), 3);
/// assert!(db.get(b"a")?.is_none());
/// assert_eq!(&db.get(b"b")?.unwrap().value[..], b"2");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
    payload_bytes: usize,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Creates an empty batch with capacity for `n` operations.
    pub fn with_capacity(n: usize) -> Self {
        WriteBatch { ops: Vec::with_capacity(n), payload_bytes: 0 }
    }

    /// A batch of one put per `(key, value)`, each copied: how a caller
    /// holding slices writes them in one group commit.
    pub fn from_puts(items: &[(&[u8], &[u8])]) -> Self {
        let mut batch = WriteBatch::with_capacity(items.len());
        for (key, value) in items {
            batch.put(Bytes::copy_from_slice(key), Bytes::copy_from_slice(value));
        }
        batch
    }

    /// Appends a put.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        let (key, value) = (key.into(), value.into());
        self.payload_bytes += key.len() + value.len();
        self.ops.push(BatchOp { key, value, kind: ValueKind::Put });
    }

    /// Appends a tombstone.
    pub fn delete(&mut self, key: impl Into<Bytes>) {
        let key = key.into();
        self.payload_bytes += key.len();
        self.ops.push(BatchOp { key, value: Bytes::new(), kind: ValueKind::Delete });
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total key + value bytes of the batch (marshalling-cost input).
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    pub(crate) fn into_ops(self) -> Ops {
        Ops::Many(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accumulates_ops_in_order() {
        let mut b = WriteBatch::new();
        assert!(b.is_empty());
        b.put(b"k1".as_slice(), b"v1".as_slice());
        b.delete(b"k2".as_slice());
        b.put(b"k1".as_slice(), b"v2".as_slice());
        assert_eq!(b.len(), 3);
        assert_eq!(b.payload_bytes(), 2 + 2 + 2 + 2 + 2);
        let ops = b.into_ops();
        let ops = ops.as_slice();
        assert_eq!(ops[0].kind, ValueKind::Put);
        assert_eq!(ops[1].kind, ValueKind::Delete);
        assert_eq!(&ops[2].value[..], b"v2");
    }
}
