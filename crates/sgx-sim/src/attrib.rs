//! Attribution of virtual time to the enclave vs the untrusted host.
//!
//! The serial-class machinery ([`crate::serial`]) answers "which lock was
//! held"; this module answers "which *world* paid". Every nanosecond that
//! [`Platform`](crate::Platform) charges lands in exactly one of three
//! buckets:
//!
//! * **enclave** — trusted execution: EPC traffic, and any charge made
//!   while the calling thread is inside an [`ecall`](crate::Platform::ecall)
//!   (or an explicit [`enclave_scope`]).
//! * **host** — untrusted execution: disk, DRAM and compute charged while
//!   the thread runs outside the enclave (including inside an
//!   [`ocall`](crate::Platform::ocall)).
//! * **boundary** — world switches themselves plus cross-boundary copies
//!   (argument marshalling through the MEE).
//!
//! Which world a thread is in is tracked thread-locally: `ecall` enters the
//! enclave for the closure's duration, `ocall` leaves it, and trusted code
//! that runs *outside* an ecall wrapper (e.g. maintenance folds on
//! background threads) can mark itself with [`enclave_scope`]. The same
//! charges are mirrored into per-thread accumulators ([`thread_charges`])
//! so a tracing layer can compute per-span deltas without touching the
//! platform's shared atomics.

use std::cell::Cell;

/// The execution world a thread is currently attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// Untrusted execution (the default for every thread).
    Host,
    /// Trusted execution inside the enclave.
    Enclave,
}

/// Where a single charge belongs, decided by the charge site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attribution {
    /// Attribute to whatever world the calling thread is in.
    CurrentWorld,
    /// Always enclave time (EPC paging and in-enclave copies).
    Enclave,
    /// World-switch and cross-boundary marshalling time.
    Boundary,
}

thread_local! {
    static WORLD: Cell<World> = const { Cell::new(World::Host) };
    static CHARGES: Cell<ThreadCharges> = const { Cell::new(ThreadCharges::ZERO) };
}

/// The world the calling thread is currently attributed to.
pub fn current_world() -> World {
    WORLD.with(Cell::get)
}

/// RAII guard produced by [`enclave_scope`]; restores the previous world
/// on drop.
#[derive(Debug)]
pub struct WorldScope {
    prev: World,
}

impl Drop for WorldScope {
    fn drop(&mut self) {
        WORLD.with(|w| w.set(self.prev));
    }
}

fn enter(world: World) -> WorldScope {
    let prev = WORLD.with(|w| w.replace(world));
    WorldScope { prev }
}

/// Marks the calling thread as executing trusted (enclave) code until the
/// returned guard drops.
///
/// [`Platform::ecall`](crate::Platform::ecall) does this automatically;
/// use this for trusted work that runs on threads never entered through an
/// ecall wrapper (e.g. background maintenance folding digests).
pub fn enclave_scope() -> WorldScope {
    enter(World::Enclave)
}

/// Marks the calling thread as executing untrusted (host) code until the
/// returned guard drops (what [`Platform::ocall`](crate::Platform::ocall)
/// does for its closure). Inside an ecall, this charges host work that no
/// world switch starts — the kernel's writeback of pages the enclave wrote
/// through a mapping of untrusted memory: host time, no transition.
pub fn host_scope() -> WorldScope {
    enter(World::Host)
}

/// Cumulative platform charges made by the calling thread.
///
/// Monotonic per thread; snapshot it before and after a region and take
/// [`ThreadCharges::since`] to attribute exactly the work this thread did
/// there — unlike [`Platform::stats`](crate::Platform::stats), concurrent
/// threads never bleed into the delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCharges {
    /// Total virtual nanoseconds charged by this thread.
    pub ns: u64,
    /// Nanoseconds attributed to enclave execution.
    pub enclave_ns: u64,
    /// Nanoseconds attributed to host execution.
    pub host_ns: u64,
    /// Nanoseconds attributed to world switches + cross-boundary copies.
    pub boundary_ns: u64,
    /// ECalls made by this thread.
    pub ecalls: u64,
    /// OCalls made by this thread.
    pub ocalls: u64,
    /// Bytes this thread copied across the enclave boundary.
    pub cross_copy_bytes: u64,
}

impl ThreadCharges {
    const ZERO: ThreadCharges = ThreadCharges {
        ns: 0,
        enclave_ns: 0,
        host_ns: 0,
        boundary_ns: 0,
        ecalls: 0,
        ocalls: 0,
        cross_copy_bytes: 0,
    };

    /// Per-field difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &ThreadCharges) -> ThreadCharges {
        ThreadCharges {
            ns: self.ns.saturating_sub(earlier.ns),
            enclave_ns: self.enclave_ns.saturating_sub(earlier.enclave_ns),
            host_ns: self.host_ns.saturating_sub(earlier.host_ns),
            boundary_ns: self.boundary_ns.saturating_sub(earlier.boundary_ns),
            ecalls: self.ecalls.saturating_sub(earlier.ecalls),
            ocalls: self.ocalls.saturating_sub(earlier.ocalls),
            cross_copy_bytes: self.cross_copy_bytes.saturating_sub(earlier.cross_copy_bytes),
        }
    }

    /// Per-field sum `self + other`, saturating at `u64::MAX`. The fold a
    /// trace analyzer uses to aggregate sibling spans before subtracting
    /// them from a parent's window.
    pub fn plus(&self, other: &ThreadCharges) -> ThreadCharges {
        ThreadCharges {
            ns: self.ns.saturating_add(other.ns),
            enclave_ns: self.enclave_ns.saturating_add(other.enclave_ns),
            host_ns: self.host_ns.saturating_add(other.host_ns),
            boundary_ns: self.boundary_ns.saturating_add(other.boundary_ns),
            ecalls: self.ecalls.saturating_add(other.ecalls),
            ocalls: self.ocalls.saturating_add(other.ocalls),
            cross_copy_bytes: self.cross_copy_bytes.saturating_add(other.cross_copy_bytes),
        }
    }

    /// This charge set viewed as a per-world [`TimeSplit`].
    pub fn split(&self) -> TimeSplit {
        TimeSplit {
            enclave_ns: self.enclave_ns,
            host_ns: self.host_ns,
            boundary_ns: self.boundary_ns,
        }
    }
}

/// Snapshot of the calling thread's cumulative charges.
pub fn thread_charges() -> ThreadCharges {
    CHARGES.with(Cell::get)
}

/// Resolves an [`Attribution`] to a concrete bucket index
/// (0 = enclave, 1 = host, 2 = boundary) and mirrors the charge into the
/// thread-local accumulators. Returns the bucket for the platform's shared
/// accumulators.
pub(crate) fn note_time(ns: u64, attr: Attribution) -> usize {
    let bucket = match attr {
        Attribution::Enclave => 0,
        Attribution::Boundary => 2,
        Attribution::CurrentWorld => match current_world() {
            World::Enclave => 0,
            World::Host => 1,
        },
    };
    CHARGES.with(|c| {
        let mut v = c.get();
        v.ns += ns;
        match bucket {
            0 => v.enclave_ns += ns,
            1 => v.host_ns += ns,
            _ => v.boundary_ns += ns,
        }
        c.set(v);
    });
    bucket
}

/// Mirrors a world-switch event into the thread-local accumulators.
pub(crate) fn note_transition(ecalls: u64, ocalls: u64) {
    CHARGES.with(|c| {
        let mut v = c.get();
        v.ecalls += ecalls;
        v.ocalls += ocalls;
        c.set(v);
    });
}

/// Mirrors cross-boundary copied bytes into the thread-local accumulators.
pub(crate) fn note_cross_bytes(bytes: u64) {
    CHARGES.with(|c| {
        let mut v = c.get();
        v.cross_copy_bytes += bytes;
        c.set(v);
    });
}

/// Virtual time split by world, as accumulated by one
/// [`Platform`](crate::Platform).
///
/// `enclave_ns + host_ns + boundary_ns` equals the total virtual time the
/// platform has charged (its clock advance since creation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeSplit {
    /// Nanoseconds of trusted (enclave) execution.
    pub enclave_ns: u64,
    /// Nanoseconds of untrusted (host) execution.
    pub host_ns: u64,
    /// Nanoseconds of world switches and cross-boundary copies.
    pub boundary_ns: u64,
}

impl TimeSplit {
    /// Per-field difference `self - earlier`, saturating at zero.
    pub fn delta(&self, earlier: &TimeSplit) -> TimeSplit {
        TimeSplit {
            enclave_ns: self.enclave_ns.saturating_sub(earlier.enclave_ns),
            host_ns: self.host_ns.saturating_sub(earlier.host_ns),
            boundary_ns: self.boundary_ns.saturating_sub(earlier.boundary_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TimeSplit {
        /// Total virtual nanoseconds across all three buckets.
        pub(crate) fn total_ns(&self) -> u64 {
            self.enclave_ns + self.host_ns + self.boundary_ns
        }
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current_world(), World::Host);
        {
            let _e = enclave_scope();
            assert_eq!(current_world(), World::Enclave);
            {
                let _h = host_scope();
                assert_eq!(current_world(), World::Host);
            }
            assert_eq!(current_world(), World::Enclave);
        }
        assert_eq!(current_world(), World::Host);
    }

    #[test]
    fn note_time_follows_world() {
        let before = thread_charges();
        assert_eq!(note_time(5, Attribution::CurrentWorld), 1);
        {
            let _e = enclave_scope();
            assert_eq!(note_time(7, Attribution::CurrentWorld), 0);
        }
        assert_eq!(note_time(3, Attribution::Boundary), 2);
        let d = thread_charges().since(&before);
        assert_eq!((d.ns, d.enclave_ns, d.host_ns, d.boundary_ns), (15, 7, 5, 3));
    }

    #[test]
    fn charge_deltas_saturate() {
        let a = ThreadCharges { ns: 10, ..Default::default() };
        let b = ThreadCharges { ns: 4, ..Default::default() };
        assert_eq!(b.since(&a).ns, 0);
        let split = TimeSplit { enclave_ns: 1, host_ns: 2, boundary_ns: 3 };
        assert_eq!(split.total_ns(), 6);
        assert_eq!(split.delta(&TimeSplit::default()), split);
    }
}
