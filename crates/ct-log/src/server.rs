//! The eLSM-backed certificate-transparency log server (§5.7).
//!
//! "The hostname of a certificate is used as the data key and the
//! certificate itself (more specifically, the hash of the certificate) is
//! the data value." — here the value is the full encoded certificate (its
//! hash is derivable), which lets monitors audit content, not just
//! presence.

use std::sync::Arc;

use elsm::{AuthenticatedKv, ElsmError, ElsmP2, P2Options};
use sgx_sim::Platform;

use crate::cert::{reverse_hostname, Certificate};

/// A certificate returned with its inclusion evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedCertificate {
    /// The certificate.
    pub certificate: Certificate,
    /// Log timestamp (submission order).
    pub log_ts: u64,
    /// Size of the verified inclusion proof in bytes.
    pub proof_bytes: usize,
}

/// The trustworthy CT log server: an eLSM-P2 store keyed by reversed
/// hostnames.
///
/// # Examples
///
/// ```
/// use ct_log::{CtLogServer, cert::synthesize};
/// use sgx_sim::Platform;
///
/// # fn main() -> Result<(), elsm::ElsmError> {
/// let server = CtLogServer::open(Platform::with_defaults())?;
/// let cert = synthesize(1, 42).pop().unwrap();
/// server.submit(&cert)?;
/// let logged = server.lookup(&cert.hostname)?.expect("included");
/// assert_eq!(logged.certificate, cert);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CtLogServer {
    store: ElsmP2,
}

impl CtLogServer {
    /// Opens a log server with default sizing.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn open(platform: Arc<Platform>) -> Result<Self, ElsmError> {
        Self::open_with(platform, P2Options::default())
    }

    /// Opens with explicit store options.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn open_with(platform: Arc<Platform>, options: P2Options) -> Result<Self, ElsmError> {
        Ok(CtLogServer { store: ElsmP2::open(platform, options)? })
    }

    /// The underlying authenticated store.
    pub fn store(&self) -> &ElsmP2 {
        &self.store
    }

    /// Logs a newly issued certificate (a CA submission). Returns the log
    /// timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn submit(&self, cert: &Certificate) -> Result<u64, ElsmError> {
        self.store.put(&cert.log_key(), &cert.encode())
    }

    /// Revokes a hostname's current certificate.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn revoke(&self, hostname: &str) -> Result<u64, ElsmError> {
        self.store.delete(reverse_hostname(hostname).as_bytes())
    }

    /// Authenticated lookup of the *current* certificate for `hostname`
    /// (freshness matters: "returning a revoked certificate may connect a
    /// user to an impersonator").
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Verification`] if the host's answer fails the
    /// inclusion/freshness checks.
    pub fn lookup(&self, hostname: &str) -> Result<Option<LoggedCertificate>, ElsmError> {
        let key = reverse_hostname(hostname).into_bytes();
        match self.store.get(&key)? {
            Some(rec) => {
                let certificate = Certificate::decode(rec.value()).ok_or(
                    elsm::VerificationFailure::ForgedRecord {
                        level: 0,
                        source: merkle::VerifyError::BadAuditPath,
                    },
                )?;
                Ok(Some(LoggedCertificate {
                    certificate,
                    log_ts: rec.ts(),
                    proof_bytes: rec.proof_bytes(),
                }))
            }
            None => Ok(None),
        }
    }

    /// Authenticated, complete listing of every certificate for `domain`
    /// and its subdomains (`example.org` covers `example.org` and
    /// `*.example.org`, not `myexample.org` or `example-cdn.org`) — the
    /// lightweight, sublinear-bandwidth monitor query the paper
    /// highlights.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Verification`] on completeness violations.
    pub fn domain_certificates(&self, domain: &str) -> Result<Vec<LoggedCertificate>, ElsmError> {
        // A sibling's reversed name can extend the apex's key
        // (`org.example-cdn.www`), so the apex is one verified GET and
        // the subdomains one verified range over the keys that extend
        // `<apex>.` (no UTF-8 hostname holds a 0xff byte).
        let apex = reverse_hostname(domain).into_bytes();
        let mut from = apex.clone();
        from.push(b'.');
        let mut to = from.clone();
        to.push(0xff);
        let apex_record = self.store.get(&apex)?;
        let mut out = Vec::new();
        for rec in apex_record.into_iter().chain(self.store.scan(&from, &to)?) {
            if let Some(certificate) = Certificate::decode(rec.value()) {
                out.push(LoggedCertificate {
                    certificate,
                    log_ts: rec.ts(),
                    proof_bytes: rec.proof_bytes(),
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::synthesize;

    fn server_with(n: usize) -> (CtLogServer, Vec<Certificate>) {
        let server = CtLogServer::open_with(
            Platform::with_defaults(),
            P2Options { write_buffer_bytes: 8 * 1024, ..P2Options::default() },
        )
        .unwrap();
        let certs = synthesize(n, 77);
        for c in &certs {
            server.submit(c).unwrap();
        }
        (server, certs)
    }

    #[test]
    fn submit_and_lookup() {
        let (server, certs) = server_with(100);
        let sample = &certs[13];
        let logged = server.lookup(&sample.hostname).unwrap().expect("included");
        // The newest certificate for that hostname wins.
        assert_eq!(logged.certificate.hostname, sample.hostname);
        assert!(server.lookup("absent.nowhere.test").unwrap().is_none());
    }

    #[test]
    fn reissue_supersedes() {
        let (server, certs) = server_with(10);
        let mut newer = certs[0].clone();
        newer.serial = 9999;
        server.submit(&newer).unwrap();
        let logged = server.lookup(&newer.hostname).unwrap().unwrap();
        assert_eq!(logged.certificate.serial, 9999, "lookup must return the freshest cert");
    }

    #[test]
    fn revocation_hides_certificate() {
        let (server, certs) = server_with(10);
        server.revoke(&certs[0].hostname).unwrap();
        assert!(server.lookup(&certs[0].hostname).unwrap().is_none());
    }

    #[test]
    fn domain_listing_is_complete() {
        let (server, certs) = server_with(200);
        server.store().db().flush().unwrap();
        // Pick a domain present in the data.
        let domain = {
            let h = &certs[0].hostname;
            h.split_once('.').unwrap().1.to_string()
        };
        let listed = server.domain_certificates(&domain).unwrap();
        let expected: std::collections::HashSet<String> = certs
            .iter()
            .filter(|c| c.hostname.ends_with(&domain))
            .map(|c| c.hostname.clone())
            .collect();
        let got: std::collections::HashSet<String> =
            listed.iter().map(|l| l.certificate.hostname.clone()).collect();
        assert_eq!(got, expected, "domain scan must be complete");
    }

    #[test]
    fn domain_listing_excludes_prefix_siblings() {
        let (server, _) = server_with(20);
        let cert = synthesize(1, 9).pop().unwrap();
        for hostname in
            ["mysite.org", "a.b.mysite.org", "www.mysitefoo.org", "www.mysite-foo.org", "www.org"]
        {
            server.submit(&Certificate { hostname: hostname.into(), ..cert.clone() }).unwrap();
        }
        for flushed in [false, true] {
            if flushed {
                server.store().db().flush().unwrap();
            }
            let listed: Vec<String> = server
                .domain_certificates("mysite.org")
                .unwrap()
                .into_iter()
                .map(|l| l.certificate.hostname)
                .collect();
            assert_eq!(listed, ["mysite.org", "a.b.mysite.org"], "flushed: {flushed}");
        }
    }

    #[test]
    fn lookups_carry_proofs_after_flush() {
        let (server, certs) = server_with(300);
        server.store().db().flush().unwrap();
        let logged = server.lookup(&certs[250].hostname).unwrap().unwrap();
        assert!(logged.proof_bytes > 0, "disk-resident answers carry Merkle proofs");
    }
}
