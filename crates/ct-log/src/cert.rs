//! Synthetic certificates.
//!
//! The paper's case study (§5.7) downloads certificates from Google's
//! Pilot CT log; that feed is unavailable offline, so this module
//! synthesizes certificates with the same schema the prototype stores:
//! hostname as the data key, certificate (hash) as the value. DESIGN.md §1
//! records the substitution.

use elsm_crypto::{sha256_concat, Digest};

/// A (synthetic) X.509-like certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Subject hostname (e.g. `mail.example.org`).
    pub hostname: String,
    /// Issuing CA name.
    pub issuer: String,
    /// Serial number, unique per issuer.
    pub serial: u64,
    /// Validity start (seconds since epoch).
    pub not_before: u64,
    /// Validity end.
    pub not_after: u64,
    /// Hash of the subject public key.
    pub spki_hash: Digest,
}

impl Certificate {
    /// The log key: labels reversed (`org.example.mail`) so one domain's
    /// certificates form a contiguous key range for monitors.
    pub fn log_key(&self) -> Vec<u8> {
        reverse_hostname(&self.hostname).into_bytes()
    }

    /// Canonical encoding stored as the log value.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let put = |out: &mut Vec<u8>, s: &[u8]| {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s);
        };
        put(&mut out, self.hostname.as_bytes());
        put(&mut out, self.issuer.as_bytes());
        out.extend_from_slice(&self.serial.to_le_bytes());
        out.extend_from_slice(&self.not_before.to_le_bytes());
        out.extend_from_slice(&self.not_after.to_le_bytes());
        out.extend_from_slice(self.spki_hash.as_bytes());
        out
    }

    /// Parses an encoded certificate; `None` unless `buf` is exactly one.
    pub fn decode(buf: &[u8]) -> Option<Certificate> {
        let mut pos = 0usize;
        let mut get = |buf: &[u8]| -> Option<Vec<u8>> {
            let len = u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().ok()?) as usize;
            pos += 4;
            let out = buf.get(pos..pos + len)?.to_vec();
            pos += len;
            Some(out)
        };
        let hostname = String::from_utf8(get(buf)?).ok()?;
        let issuer = String::from_utf8(get(buf)?).ok()?;
        let serial = u64::from_le_bytes(buf.get(pos..pos + 8)?.try_into().ok()?);
        let not_before = u64::from_le_bytes(buf.get(pos + 8..pos + 16)?.try_into().ok()?);
        let not_after = u64::from_le_bytes(buf.get(pos + 16..pos + 24)?.try_into().ok()?);
        let spki = buf.get(pos + 24..).filter(|rest| rest.len() == 32)?.try_into().ok()?;
        Some(Certificate {
            hostname,
            issuer,
            serial,
            not_before,
            not_after,
            spki_hash: Digest::from_bytes(spki),
        })
    }

    /// The certificate hash (what browsers pin and auditors check).
    pub fn cert_hash(&self) -> Digest {
        sha256_concat(&[&[0x0c], &self.encode()])
    }
}

/// Reverses hostname labels: `mail.example.org` → `org.example.mail`.
pub fn reverse_hostname(hostname: &str) -> String {
    hostname.split('.').rev().collect::<Vec<_>>().join(".")
}

/// Deterministically synthesizes `n` certificates across ~`n / 4` domains
/// with realistic issuers and validity windows.
pub fn synthesize(n: usize, seed: u64) -> Vec<Certificate> {
    const ISSUERS: [&str; 4] = ["Let's Encrypt R3", "DigiCert G2", "Sectigo RSA", "GTS CA 1C3"];
    const TLDS: [&str; 3] = ["org", "com", "net"];
    const SUBS: [&str; 4] = ["www", "mail", "api", "cdn"];
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    (0..n)
        .map(|i| {
            let domain_id = next() as usize % (n / 4 + 1);
            let hostname = format!(
                "{}.domain{:05}.{}",
                SUBS[next() as usize % SUBS.len()],
                domain_id,
                TLDS[domain_id % TLDS.len()],
            );
            let not_before = 1_700_000_000 + (next() % 10_000_000);
            Certificate {
                hostname: hostname.clone(),
                issuer: ISSUERS[next() as usize % ISSUERS.len()].to_string(),
                serial: i as u64 + 1,
                not_before,
                not_after: not_before + 90 * 86_400,
                spki_hash: sha256_concat(&[b"spki", hostname.as_bytes(), &next().to_le_bytes()]),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let certs = synthesize(20, 1);
        for c in &certs {
            assert_eq!(Certificate::decode(&c.encode()).unwrap(), *c);
        }
    }

    #[test]
    fn log_keys_group_domains() {
        let a = Certificate { hostname: "mail.example.org".into(), ..synthesize(1, 2)[0].clone() };
        let b = Certificate { hostname: "www.example.org".into(), ..a.clone() };
        let c = Certificate { hostname: "www.other.com".into(), ..a.clone() };
        let (ka, kb, kc) = (a.log_key(), b.log_key(), c.log_key());
        assert!(ka.starts_with(b"org.example."));
        assert!(kb.starts_with(b"org.example."));
        assert!(!kc.starts_with(b"org.example."));
    }

    #[test]
    fn reverse_hostname_works() {
        assert_eq!(reverse_hostname("a.b.c"), "c.b.a");
        assert_eq!(reverse_hostname("single"), "single");
    }

    #[test]
    fn cert_hash_binds_content() {
        let c = synthesize(1, 3).pop().unwrap();
        let mut c2 = c.clone();
        c2.serial += 1;
        assert_ne!(c.cert_hash(), c2.cert_hash());
    }

    #[test]
    fn synthesis_is_deterministic_and_diverse() {
        let a = synthesize(100, 9);
        let b = synthesize(100, 9);
        assert_eq!(a, b);
        let issuers: std::collections::HashSet<_> = a.iter().map(|c| &c.issuer).collect();
        assert!(issuers.len() > 1);
    }

    #[test]
    fn decode_rejects_truncation() {
        let c = synthesize(1, 5).pop().unwrap();
        let bytes = c.encode();
        assert!(Certificate::decode(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let c = synthesize(1, 6).pop().unwrap();
        let mut bytes = c.encode();
        bytes.push(0);
        assert!(Certificate::decode(&bytes).is_none(), "only the encoding itself decodes");
    }
}
