//! Error types of the authenticated store; the verification failures are
//! `elsm_enclave::failure`'s.

use std::fmt;

use sim_disk::FsError;

pub use elsm_enclave::failure::{VerificationFailure, WRONG_SHARD_UNSHARDED};

/// Top-level error of the authenticated store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElsmError {
    /// Storage-layer failure.
    Io(FsError),
    /// The host's answer failed authentication.
    Verification(VerificationFailure),
    /// The store refuses service after a failed compaction verification.
    Poisoned,
}

impl fmt::Display for ElsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElsmError::Io(e) => write!(f, "io error: {e}"),
            ElsmError::Verification(v) => write!(f, "verification failed: {v}"),
            ElsmError::Poisoned => f.write_str("store poisoned by failed compaction verification"),
        }
    }
}

impl std::error::Error for ElsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ElsmError::Io(e) => Some(e),
            ElsmError::Verification(v) => Some(v),
            ElsmError::Poisoned => None,
        }
    }
}

impl From<FsError> for ElsmError {
    fn from(e: FsError) -> Self {
        ElsmError::Io(e)
    }
}

impl From<VerificationFailure> for ElsmError {
    fn from(v: VerificationFailure) -> Self {
        ElsmError::Verification(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ElsmError::Verification(VerificationFailure::StaleRecord {
            level: 2,
            newer_versions: 1,
        });
        let s = format!("{e}");
        assert!(s.contains("stale") && s.contains("level 2"));
    }

    #[test]
    fn conversions_work() {
        let io: ElsmError = FsError::NotFound("x".into()).into();
        assert!(matches!(io, ElsmError::Io(_)));
        let v: ElsmError = VerificationFailure::RolledBack.into();
        assert!(matches!(v, ElsmError::Verification(_)));
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error;
        let e = ElsmError::Verification(VerificationFailure::RolledBack);
        assert!(e.source().is_some());
    }
}
