//! # ct-log
//!
//! The paper's §5.7 case study: a trustworthy certificate-transparency log
//! server built on the eLSM-P2 authenticated key-value store.
//!
//! * [`CtLogServer`] — logs certificates keyed by reversed hostname,
//!   serving authenticated lookups (inclusion + freshness: revoked or
//!   superseded certificates cannot be replayed) and complete per-domain
//!   listings;
//! * [`LogAuditor`] — the browser-side client validating handshake
//!   certificates against the log;
//! * [`DomainMonitor`] — a lightweight monitor that polls only its own
//!   domain's certificates (sublinear bandwidth) and alerts on
//!   mis-issuance.
//!
//! Certificates are synthesized ([`cert::synthesize`]) since the Google
//! Pilot log feed the paper downloads from is unavailable offline — see
//! DESIGN.md §1.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auditor;
pub mod cert;
pub mod monitor;
pub mod server;

pub use auditor::{AuditVerdict, LogAuditor};
pub use cert::{synthesize, Certificate};
pub use monitor::{DomainMonitor, MisissuanceAlert};
pub use server::{CtLogServer, LoggedCertificate};
