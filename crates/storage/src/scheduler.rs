//! Per-device read coalescing policy.
//!
//! Every storage unit serves its requests FCFS, one page at a time, against
//! its controller and disk resources.  With coalescing on, a synchronous
//! read of a page that is already being read at the same unit joins that
//! in-flight request instead of paying for its own: the engine keeps the
//! unit's in-flight reads and fans the one completion out to every waiter.

/// Read-coalescing policy for one simulation (applied to every disk unit).
///
/// The default is disabled: every read is an I/O of its own, and each
/// device report's `scheduler` section is `None`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSchedulerParams {
    /// Let a synchronous read join an in-flight read of the same page.
    pub coalesce: bool,
}

impl IoSchedulerParams {
    /// True if coalescing is on.  When false the engine keeps no in-flight
    /// read lists at all.
    pub fn enabled(&self) -> bool {
        self.coalesce
    }
}
