//! The in-memory write buffer (level L0 in the paper's terminology).
//!
//! A skiplist of records in internal-key order, as in LevelDB/RocksDB, kept
//! in safe Rust in two flat arenas: the nodes (each a [`Record`] and where
//! its tower starts) and every node's tower of `u32` links, back to back.
//! Nodes are never moved or freed — exactly like LevelDB's arena — so an
//! insert costs no allocation of its own: it pushes one node and its links
//! (the arenas grow by doubling) and finds its predecessors in a stack
//! array. Searches compare `(user_key, ts, kind)` off the stored records;
//! no encoded key is built on either side.
//!
//! Probe and iteration paths hand out reference-counted [`Bytes`] clones
//! of the stored records instead of copying the user key on every hit — the
//! memtable sits on the hottest read path, where a per-probe allocation
//! would be pure overhead. A record pins whatever buffer its key and value
//! share: a PUT through `ElsmP2` builds both in one.
//!
//! In both eLSM designs the write buffer lives **inside** the enclave
//! (Table 1); it is small (4 MB by default) so it never causes EPC paging.

use bytes::Bytes;

use crate::record::{Record, SeekKey};

const MAX_HEIGHT: usize = 12;
/// Branching probability 1/4, as in LevelDB.
const BRANCH_DENOM: u64 = 4;

#[derive(Debug)]
struct Node {
    record: Record,
    /// Where this node's tower starts in [`SkipList::links`]; the tower is
    /// as tall as the node was drawn.
    tower: u32,
}

/// An append-only skiplist of [`Record`]s ordered by internal key.
#[derive(Debug)]
struct SkipList {
    /// Node 0 is the head sentinel, with a full-height tower.
    nodes: Vec<Node>,
    /// Every node's tower, back to back: `links[tower + h]` is the arena
    /// index of the node's successor at height `h` (0 = none).
    links: Vec<u32>,
    height: usize,
    rng_state: u64,
    approx_bytes: usize,
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl SkipList {
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        SkipList {
            nodes: vec![Node { record: Record::put(Bytes::new(), Bytes::new(), 0), tower: 0 }],
            links: vec![0; MAX_HEIGHT],
            height: 1,
            rng_state: 0x9e37_79b9_7f4a_7c15,
            approx_bytes: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory usage in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.approx_bytes
    }

    fn random_height(&mut self) -> usize {
        let mut h = 1;
        loop {
            self.rng_state =
                self.rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if h < MAX_HEIGHT && (self.rng_state >> 33) % BRANCH_DENOM == 0 {
                h += 1;
            } else {
                return h;
            }
        }
    }

    /// Where node `node`'s link at height `h` sits in `links`.
    fn link(&self, node: u32, h: usize) -> usize {
        self.nodes[node as usize].tower as usize + h
    }

    /// Finds, per level, the last node whose key is `< key`.
    fn find_predecessors(&self, key: SeekKey<'_>) -> [u32; MAX_HEIGHT] {
        let mut prev = [0u32; MAX_HEIGHT];
        let mut node = 0u32;
        for h in (0..self.height).rev() {
            loop {
                let next = self.links[self.link(node, h)];
                if next != 0
                    && key.cmp_record(&self.nodes[next as usize].record) == std::cmp::Ordering::Less
                {
                    node = next;
                } else {
                    break;
                }
            }
            prev[h] = node;
        }
        prev
    }

    /// Inserts a record. Internal keys must be unique (they carry a unique
    /// timestamp, so duplicates cannot occur in correct usage).
    pub fn insert(&mut self, record: Record) {
        let prev = self.find_predecessors(SeekKey::new(&record.key, record.ts, record.kind));
        let h = self.random_height();
        if h > self.height {
            self.height = h;
        }
        let idx = u32::try_from(self.nodes.len()).expect("fewer than 2^32 memtable records");
        let tower = u32::try_from(self.links.len()).expect("fewer than 2^32 memtable links");
        // The flush trigger's arithmetic, which sets every flush point: the
        // internal key (user key and 8-byte suffix), the value, 8 bytes per
        // link and 24 per node.
        self.approx_bytes += record.key.len() + 8 + record.value.len() + 8 * h + 24;
        for (level, &p) in prev.iter().enumerate().take(h) {
            let link = self.link(p, level);
            self.links.push(self.links[link]);
            self.links[link] = idx;
        }
        self.nodes.push(Node { record, tower });
    }

    /// Arena index of the first node with key `>= key` (0 if none).
    fn seek_index(&self, key: SeekKey<'_>) -> u32 {
        let prev = self.find_predecessors(key);
        self.links[self.link(prev[0], 0)]
    }

    /// Iterates entries with keys `>= key`.
    pub(crate) fn range_from<'a>(&'a self, key: SeekKey<'_>) -> SkipIter<'a> {
        SkipIter { list: self, node: self.seek_index(key) }
    }

    /// Iterates all entries in order.
    pub fn iter(&self) -> SkipIter<'_> {
        SkipIter { list: self, node: self.links[self.link(0, 0)] }
    }
}

/// Iterator over skiplist entries, in internal-key order.
#[derive(Debug, Clone)]
struct SkipIter<'a> {
    list: &'a SkipList,
    node: u32,
}

impl<'a> Iterator for SkipIter<'a> {
    type Item = &'a Record;

    fn next(&mut self) -> Option<Self::Item> {
        if self.node == 0 {
            return None;
        }
        let record = &self.list.nodes[self.node as usize].record;
        self.node = self.list.links[self.list.link(self.node, 0)];
        Some(record)
    }
}

/// The write buffer: a skiplist of [`Record`]s plus bookkeeping.
///
/// # Examples
///
/// ```
/// use lsm_store::memtable::MemTable;
/// use lsm_store::record::Record;
///
/// let mut mt = MemTable::new();
/// mt.insert(Record::put(b"k".as_slice(), b"v1".as_slice(), 1));
/// mt.insert(Record::put(b"k".as_slice(), b"v2".as_slice(), 2));
/// let newest = mt.get(b"k").unwrap();
/// assert_eq!(newest.ts, 2);
/// ```
#[derive(Debug, Default)]
pub struct MemTable {
    list: SkipList,
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable { list: SkipList::new() }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the memtable holds no records.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Approximate memory usage (flush trigger input).
    pub fn approximate_bytes(&self) -> usize {
        self.list.approximate_bytes()
    }

    /// Inserts a record.
    pub fn insert(&mut self, record: Record) {
        self.list.insert(record);
    }

    /// Returns the newest record for `key`, including tombstones (the
    /// caller interprets them). The returned record shares its key/value
    /// storage with the stored one (cheap `Bytes` clones).
    pub fn get(&self, key: &[u8]) -> Option<Record> {
        let record = self.list.range_from(SeekKey::newest(key)).next()?;
        if record.key != key {
            return None;
        }
        Some(record.clone())
    }

    /// All records in internal-key order (for flush and scans).
    pub fn iter_records(&self) -> impl Iterator<Item = Record> + '_ {
        self.list.iter().cloned()
    }

    /// Records with user key in `[from, to]`, all versions, newest first
    /// within a key.
    pub fn range_records(&self, from: &[u8], to: &[u8]) -> Vec<Record> {
        let mut out = Vec::new();
        for record in self.list.range_from(SeekKey::newest(from)) {
            if record.key[..] > *to {
                break;
            }
            out.push(record.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::RecordFixtures;
    use crate::record::ValueKind;

    #[test]
    fn empty_get_is_none() {
        let mt = MemTable::new();
        assert!(mt.get(b"k").is_none());
        assert!(mt.is_empty());
    }

    #[test]
    fn newest_version_wins() {
        let mut mt = MemTable::new();
        mt.insert(Record::put(b"k".as_slice(), b"v1".as_slice(), 1));
        mt.insert(Record::put(b"k".as_slice(), b"v2".as_slice(), 5));
        mt.insert(Record::put(b"k".as_slice(), b"v3".as_slice(), 3));
        let r = mt.get(b"k").unwrap();
        assert_eq!((r.ts, &r.value[..]), (5, b"v2".as_slice()));
    }

    #[test]
    fn tombstones_are_returned() {
        let mut mt = MemTable::new();
        mt.insert(Record::put(b"k".as_slice(), b"v".as_slice(), 1));
        mt.insert(Record::tombstone(b"k".as_slice(), 2));
        let r = mt.get(b"k").unwrap();
        assert_eq!(r.kind, ValueKind::Delete);
    }

    #[test]
    fn keys_do_not_bleed() {
        let mut mt = MemTable::new();
        mt.insert(Record::put(b"a".as_slice(), b"1".as_slice(), 1));
        mt.insert(Record::put(b"c".as_slice(), b"2".as_slice(), 2));
        assert!(mt.get(b"b").is_none());
    }

    #[test]
    fn probe_shares_key_storage() {
        // The hot-path guarantee: a hit must not copy the user key.
        let mut mt = MemTable::new();
        mt.insert(Record::put(b"shared".as_slice(), b"v".as_slice(), 1));
        let a = mt.get(b"shared").unwrap();
        let b = mt.get(b"shared").unwrap();
        assert!(a.key.shares_storage(&b.key), "probes must clone, not copy");
    }

    #[test]
    fn iteration_is_sorted_newest_first_within_key() {
        let mut mt = MemTable::new();
        mt.insert(Record::put(b"b".as_slice(), b"old".as_slice(), 1));
        mt.insert(Record::put(b"a".as_slice(), b"x".as_slice(), 2));
        mt.insert(Record::put(b"b".as_slice(), b"new".as_slice(), 3));
        let recs: Vec<Record> = mt.iter_records().collect();
        let keys: Vec<&[u8]> = recs.iter().map(|r| &r.key[..]).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b".as_slice(), b"b".as_slice()]);
        assert_eq!(recs[1].ts, 3, "newest version of b first");
        assert_eq!(recs[2].ts, 1);
    }

    #[test]
    fn range_records_bounds_inclusive() {
        let mut mt = MemTable::new();
        for (i, k) in [b"a", b"b", b"c", b"d"].iter().enumerate() {
            mt.insert(Record::put(k.as_slice(), b"v".as_slice(), i as u64 + 1));
        }
        let got = mt.range_records(b"b", b"c");
        let keys: Vec<&[u8]> = got.iter().map(|r| &r.key[..]).collect();
        assert_eq!(keys, vec![b"b".as_slice(), b"c".as_slice()]);
    }

    #[test]
    fn large_insert_set_stays_sorted() {
        let mut mt = MemTable::new();
        // Insert shuffled keys.
        let mut keys: Vec<u32> = (0..2000).collect();
        let mut state = 7u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            keys.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for (ts, k) in keys.iter().enumerate() {
            let key = format!("{k:08}");
            mt.insert(Record::put(key.into_bytes(), b"v".as_slice(), ts as u64 + 1));
        }
        let collected: Vec<Record> = mt.iter_records().collect();
        assert_eq!(collected.len(), 2000);
        for w in collected.windows(2) {
            assert!(w[0].key <= w[1].key);
        }
        // Every key findable.
        for k in 0..2000u32 {
            let key = format!("{k:08}");
            assert!(mt.get(key.as_bytes()).is_some(), "missing {k}");
        }
    }

    /// The flush trigger's arithmetic, pinned to what the skiplist that
    /// kept a vector per node and per encoded key reported for the same
    /// inserts (heights come from the same generator): it sets every flush
    /// point, and through them every simulated number.
    #[test]
    fn approximate_bytes_are_pinned() {
        let mut mt = MemTable::new();
        let mut seen = Vec::new();
        for i in 0..2000u64 {
            let key = format!("key{:05}", (i * 7919) % 1500).into_bytes();
            mt.insert(Record::put(key, vec![0u8; (i % 37) as usize], i + 1));
            if i % 250 == 249 {
                seen.push(mt.approximate_bytes());
            }
        }
        assert_eq!(seen, [17070, 34197, 51349, 68670, 85792, 102846, 120181, 137381]);
    }

    #[test]
    fn approximate_bytes_grows() {
        let mut mt = MemTable::new();
        let before = mt.approximate_bytes();
        mt.insert(Record::put(b"key".as_slice(), vec![0u8; 100], 1));
        assert!(mt.approximate_bytes() > before + 100);
    }
}
