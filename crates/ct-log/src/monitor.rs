//! Domain monitors: incremental mis-issuance detection (§5.7).
//!
//! "The eLSM scheme can enable lightweight log monitors who only download
//! the certificates of their own domain names, resulting in low and
//! sublinear bandwidth." A monitor tracks one domain, polls the log with
//! authenticated range queries, and reports certificates it has not
//! approved — without ever downloading the whole log.

use std::collections::HashSet;

use elsm_crypto::Digest;

use crate::cert::Certificate;
use crate::server::CtLogServer;
use elsm::ElsmError;

/// A certificate the monitor flagged as unexpected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisissuanceAlert {
    /// The offending certificate.
    pub certificate: Certificate,
    /// When it entered the log.
    pub log_ts: u64,
}

/// A per-domain log monitor with incremental polling.
#[derive(Debug)]
pub struct DomainMonitor {
    domain: String,
    approved_spki: HashSet<Digest>,
    last_seen_ts: u64,
    certificates_downloaded: u64,
}

impl DomainMonitor {
    /// Creates a monitor for `domain`, trusting the given SPKI hashes.
    pub fn new(domain: &str, approved_spki: impl IntoIterator<Item = Digest>) -> Self {
        DomainMonitor {
            domain: domain.to_string(),
            approved_spki: approved_spki.into_iter().collect(),
            last_seen_ts: 0,
            certificates_downloaded: 0,
        }
    }

    /// Total certificates ever downloaded (the sublinear-bandwidth claim:
    /// this counts only the monitored domain's certs).
    pub fn certificates_downloaded(&self) -> u64 {
        self.certificates_downloaded
    }

    /// Polls the log: fetches this domain's certificates newer than the
    /// last poll and returns alerts for any issued with unapproved keys.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Verification`] if the log's (complete) range
    /// answer fails authentication — a monitor must not silently accept a
    /// censored listing.
    pub fn poll(&mut self, server: &CtLogServer) -> Result<Vec<MisissuanceAlert>, ElsmError> {
        let all = server.domain_certificates(&self.domain)?;
        let mut alerts = Vec::new();
        let mut max_ts = self.last_seen_ts;
        for logged in all {
            if logged.log_ts <= self.last_seen_ts {
                continue; // already reviewed in an earlier poll
            }
            self.certificates_downloaded += 1;
            max_ts = max_ts.max(logged.log_ts);
            if !self.approved_spki.contains(&logged.certificate.spki_hash) {
                alerts.push(MisissuanceAlert {
                    log_ts: logged.log_ts,
                    certificate: logged.certificate,
                });
            }
        }
        self.last_seen_ts = max_ts;
        Ok(alerts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::synthesize;
    use sgx_sim::Platform;

    fn make_cert(hostname: &str, spki: Digest, serial: u64) -> Certificate {
        Certificate {
            hostname: hostname.to_string(),
            issuer: "Test CA".into(),
            serial,
            not_before: 0,
            not_after: 1,
            spki_hash: spki,
        }
    }

    #[test]
    fn approved_certs_raise_no_alerts() {
        let server = CtLogServer::open(Platform::with_defaults()).unwrap();
        let spki = elsm_crypto::sha256(b"our key");
        server.submit(&make_cert("www.mysite.org", spki, 1)).unwrap();
        server.submit(&make_cert("mail.mysite.org", spki, 2)).unwrap();
        let mut monitor = DomainMonitor::new("mysite.org", [spki]);
        assert!(monitor.poll(&server).unwrap().is_empty());
        assert_eq!(monitor.certificates_downloaded(), 2);
    }

    #[test]
    fn misissued_cert_detected() {
        let server = CtLogServer::open(Platform::with_defaults()).unwrap();
        let ours = elsm_crypto::sha256(b"our key");
        let attacker = elsm_crypto::sha256(b"attacker key");
        server.submit(&make_cert("www.mysite.org", ours, 1)).unwrap();
        server.submit(&make_cert("evil.mysite.org", attacker, 2)).unwrap();
        let mut monitor = DomainMonitor::new("mysite.org", [ours]);
        let alerts = monitor.poll(&server).unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].certificate.hostname, "evil.mysite.org");
    }

    #[test]
    fn polling_is_incremental() {
        let server = CtLogServer::open(Platform::with_defaults()).unwrap();
        let ours = elsm_crypto::sha256(b"our key");
        server.submit(&make_cert("a.mysite.org", ours, 1)).unwrap();
        let mut monitor = DomainMonitor::new("mysite.org", [ours]);
        monitor.poll(&server).unwrap();
        assert_eq!(monitor.certificates_downloaded(), 1);
        // Nothing new: no additional downloads.
        monitor.poll(&server).unwrap();
        assert_eq!(monitor.certificates_downloaded(), 1);
        // A new submission is picked up exactly once.
        server.submit(&make_cert("b.mysite.org", ours, 2)).unwrap();
        monitor.poll(&server).unwrap();
        assert_eq!(monitor.certificates_downloaded(), 2);
    }

    #[test]
    fn bandwidth_is_sublinear_in_log_size() {
        let server = CtLogServer::open(Platform::with_defaults()).unwrap();
        // A big log of unrelated certificates...
        for c in synthesize(400, 5) {
            server.submit(&c).unwrap();
        }
        // ...and two certs for our domain.
        let ours = elsm_crypto::sha256(b"our key");
        server.submit(&make_cert("www.tiny.org", ours, 1)).unwrap();
        server.submit(&make_cert("api.tiny.org", ours, 2)).unwrap();
        let mut monitor = DomainMonitor::new("tiny.org", [ours]);
        monitor.poll(&server).unwrap();
        assert_eq!(
            monitor.certificates_downloaded(),
            2,
            "monitor must download only its own domain's certificates"
        );
    }
}
