//! The log auditor: a browser-side client validating certificates (§5.7).
//!
//! "A log auditor running along with a web browser needs to validate the
//! certificate being used by the browser. Given a certificate, the log
//! auditor queries the log server for a proof of inclusion." With eLSM the
//! enclave verifies the inclusion proof, so the auditor only compares the
//! presented certificate against the (verified-fresh) logged one. It could
//! not check a stored proof itself from a published root: the proof a
//! record stores stops at the anchor row of the level's crown, the top
//! Merkle rows only the enclave holds, and verifies against that crown, not
//! against a bare root.

use crate::cert::Certificate;
use crate::server::CtLogServer;
use elsm::ElsmError;

/// Why the auditor rejects a presented certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditVerdict {
    /// The presented certificate is the current logged one: accept.
    Valid,
    /// The hostname has no current certificate (revoked or never issued).
    NotInLog,
    /// A different (newer) certificate is logged — the presented one is
    /// superseded or outright mis-issued.
    Mismatch {
        /// Serial of the certificate the log currently holds.
        logged_serial: u64,
    },
}

/// A TLS-handshake-time certificate auditor.
#[derive(Debug)]
pub struct LogAuditor<'a> {
    server: &'a CtLogServer,
}

impl<'a> LogAuditor<'a> {
    /// Creates an auditor bound to a log server.
    pub fn new(server: &'a CtLogServer) -> Self {
        LogAuditor { server }
    }

    /// Audits a certificate presented during a handshake.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Verification`] when the log server's answer
    /// itself fails authentication — the auditor must treat that as a
    /// compromised log, not as a missing certificate.
    pub fn audit(&self, presented: &Certificate) -> Result<AuditVerdict, ElsmError> {
        match self.server.lookup(&presented.hostname)? {
            None => Ok(AuditVerdict::NotInLog),
            Some(logged) => {
                if logged.certificate.cert_hash() == presented.cert_hash() {
                    Ok(AuditVerdict::Valid)
                } else {
                    Ok(AuditVerdict::Mismatch { logged_serial: logged.certificate.serial })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::synthesize;
    use sgx_sim::Platform;

    fn setup() -> (CtLogServer, Vec<Certificate>) {
        let server = CtLogServer::open(Platform::with_defaults()).unwrap();
        let certs = synthesize(50, 11);
        for c in &certs {
            server.submit(c).unwrap();
        }
        (server, certs)
    }

    #[test]
    fn current_certificate_is_valid() {
        let (server, certs) = setup();
        let auditor = LogAuditor::new(&server);
        // Use a hostname whose latest submission is certs[i] itself.
        let latest = server.lookup(&certs[10].hostname).unwrap().unwrap().certificate;
        assert_eq!(auditor.audit(&latest).unwrap(), AuditVerdict::Valid);
    }

    #[test]
    fn unknown_hostname_not_in_log() {
        let (server, mut certs) = setup();
        let auditor = LogAuditor::new(&server);
        certs[0].hostname = "unknown.example.test".into();
        assert_eq!(auditor.audit(&certs[0]).unwrap(), AuditVerdict::NotInLog);
    }

    #[test]
    fn superseded_certificate_is_flagged() {
        let (server, certs) = setup();
        let old = server.lookup(&certs[5].hostname).unwrap().unwrap().certificate;
        let mut newer = old.clone();
        newer.serial = 777_777;
        server.submit(&newer).unwrap();
        let auditor = LogAuditor::new(&server);
        assert_eq!(
            auditor.audit(&old).unwrap(),
            AuditVerdict::Mismatch { logged_serial: 777_777 },
            "stale certificate must be rejected (freshness)"
        );
    }

    #[test]
    fn revoked_certificate_not_in_log() {
        let (server, certs) = setup();
        let current = server.lookup(&certs[3].hostname).unwrap().unwrap().certificate;
        server.revoke(&certs[3].hostname).unwrap();
        let auditor = LogAuditor::new(&server);
        assert_eq!(auditor.audit(&current).unwrap(), AuditVerdict::NotInLog);
    }
}
