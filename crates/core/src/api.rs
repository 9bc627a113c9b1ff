//! The public authenticated key-value interface (Equation 1 of the paper).

use bytes::Bytes;
use lsm_store::Timestamp;

use crate::error::ElsmError;

/// A record whose authenticity the enclave has verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedRecord {
    key: Bytes,
    value: Bytes,
    ts: Timestamp,
    proof_bytes: usize,
    levels_checked: usize,
}

impl VerifiedRecord {
    /// Assembles a verified record (crate-internal).
    pub(crate) fn new(
        key: Bytes,
        value: Bytes,
        ts: Timestamp,
        proof_bytes: usize,
        levels_checked: usize,
    ) -> Self {
        VerifiedRecord { key, value, ts, proof_bytes, levels_checked }
    }

    /// The record's key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The record's (bare, application-level) value.
    pub fn value(&self) -> &[u8] {
        &self.value
    }

    /// The timestamp assigned by the enclave's timestamp manager.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// Serialized size of the proofs checked for this answer (0 when the
    /// answer came from trusted enclave memory).
    pub fn proof_bytes(&self) -> usize {
        self.proof_bytes
    }

    /// Number of LSM levels inspected (the early stop keeps this small).
    pub fn levels_checked(&self) -> usize {
        self.levels_checked
    }
}

/// The paper's authenticated store interface (§3.2, Equation 1):
/// `ts = PUT(k, v)`, `⟨k, v, ts⟩ = GET(k)`, `{⟨k, v, ts⟩} = SCAN(k1, k2)`.
pub trait AuthenticatedKv {
    /// Writes a key-value record; returns its timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure or when the store is poisoned.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<Timestamp, ElsmError>;

    /// Reads the freshest record for `key`, verifying integrity,
    /// completeness and freshness.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Verification`] when the host's answer fails
    /// authentication.
    fn get(&self, key: &[u8]) -> Result<Option<VerifiedRecord>, ElsmError>;

    /// Deletes `key` (writes a tombstone); returns its timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure or when the store is poisoned.
    fn delete(&self, key: &[u8]) -> Result<Timestamp, ElsmError>;

    /// Range query over `[from, to]` with completeness verification.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Verification`] when any level's answer fails
    /// authentication.
    fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<VerifiedRecord>, ElsmError>;

    /// Writes a whole batch of records atomically; returns one timestamp
    /// per record, in batch order.
    ///
    /// The enclave-backed stores serve it with their group-commit entry
    /// point: one ECall for the whole batch, one WAL frame, one
    /// trusted-state fold — and the frame is the crash-atomicity unit, so
    /// recovery replays the batch whole or drops it whole.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure or when the store is poisoned.
    fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<Vec<Timestamp>, ElsmError>;

    /// Deletes a whole batch of keys atomically (tombstones); returns one
    /// timestamp per key. Same contract as [`AuthenticatedKv::put_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure or when the store is poisoned.
    fn delete_batch(&self, keys: &[&[u8]]) -> Result<Vec<Timestamp>, ElsmError>;
}

/// The spans of the six [`AuthenticatedKv`] entry points, `<prefix>.put` …
/// `<prefix>.scan`, each in the op class of its operation. Built once at
/// open by every layer that serves the trait (`ElsmP2` under `op`, the
/// shard router under `router.op`).
#[derive(Debug)]
#[allow(missing_docs)]
pub struct OpSpans {
    pub put: telemetry::Span,
    pub delete: telemetry::Span,
    pub put_batch: telemetry::Span,
    pub delete_batch: telemetry::Span,
    pub get: telemetry::Span,
    pub scan: telemetry::Span,
}

impl OpSpans {
    /// Registers the six spans on `telemetry` under `prefix`.
    pub fn new(prefix: &str, telemetry: &telemetry::Telemetry) -> Self {
        let span = |op: &'static str| telemetry.span(&format!("{prefix}.{op}"), op);
        OpSpans {
            put: span("put"),
            delete: span("delete"),
            put_batch: span("put_batch"),
            delete_batch: span("delete_batch"),
            get: span("get"),
            scan: span("scan"),
        }
    }
}
