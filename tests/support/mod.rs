//! Support shared by the integration tests. `examples/adversarial_host.rs`
//! includes `adversary.rs` by path.

pub mod adversary;
pub mod records;
