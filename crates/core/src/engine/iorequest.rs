//! In-flight I/O requests.
//!
//! An I/O request carries the service stages decided by the disk unit
//! (controller → disk → transmission) with a cursor over them, the
//! transactions waiting for it, and the one follow-up its completion
//! performs ([`Completion`]): notifying the buffer manager about an
//! asynchronous write, freeing a page of the NVEM log write buffer, cleaning
//! the unit's cache frame after a destage, or charging a checkpoint's
//! latency.  A request whose decision has background stages spawns their
//! destage on completion.
//!
//! The stage a request took last names the resource it holds or queues for,
//! so a freed controller or disk hands its next queued request that
//! request's own stage service time; nothing else records the resource.
//!
//! Requests live in the engine's [`IoArena`]; their stages are copied
//! inline from the device decision.  A completed request stays in its arena
//! slot and the next request claiming the slot reuses its waiter list
//! ([`IoArena::claim_request`]), so issuing an I/O allocates nothing in
//! steady state.
//!
//! [`IoArena`]: super::arena::IoArena
//! [`IoArena::claim_request`]: super::arena::Slab::claim_request

use dbmodel::PageId;
use simkernel::time::SimTime;
use storage::{BackgroundStages, ForegroundStages, ServiceStage};

/// What completing a request does besides waking its waiters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Completion {
    /// Nothing more.  A plain I/O issued by a transaction blocks it.
    #[default]
    Plain,
    /// An asynchronous write-back: the issuing node's buffer manager hears
    /// of it (its NVEM cache or write-buffer frame becomes clean).
    WriteBack,
    /// An asynchronous log write absorbed by the NVEM write buffer: one of
    /// the buffer's pages becomes free.
    LogWriteBuffer,
    /// The background destage of an absorbed write: the unit's cache frame
    /// becomes clean.
    Destage,
    /// A checkpoint log record: the latency since issue, queueing included,
    /// is checkpoint overhead.
    Checkpoint,
}

/// One in-flight I/O request.
#[derive(Debug, Default)]
pub(crate) struct IoRequest {
    /// The disk unit serving the request.
    pub unit: usize,
    /// The node whose buffer manager issued the request (routes buffer
    /// notifications in data-sharing runs; 0 in a single-node run).
    pub node: usize,
    /// The page concerned.
    pub page: PageId,
    /// Foreground stages as decided by the device.
    pub stages: ForegroundStages,
    /// Number of stages taken so far.
    pub taken: usize,
    /// Background stages to run after the foreground completes (destage of an
    /// absorbed write).
    pub background: BackgroundStages,
    /// The follow-up work of the completion.
    pub completion: Completion,
    /// Simulated time the request was issued.
    pub issued_at: SimTime,
    /// This request is a blocking read listed in its coalescing unit's
    /// in-flight reads; completion removes it from the list.
    pub joinable: bool,
    /// Transaction slots to wake on completion, in order: the blocking
    /// issuer first, then the readers that joined at a coalescing unit — or
    /// else the members of a group-commit batch.
    pub waiters: Vec<usize>,
}

impl IoRequest {
    /// Takes (and returns) the next foreground stage.
    #[inline]
    pub fn pop_stage(&mut self) -> Option<ServiceStage> {
        let stage = self.stages.get(self.taken).copied();
        if stage.is_some() {
            self.taken += 1;
        }
        stage
    }

    /// The stage taken last: the one in service, or queued for.
    #[inline]
    pub fn current_stage(&self) -> Option<ServiceStage> {
        self.taken.checked_sub(1).map(|last| self.stages[last])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_cursor_names_the_stage_taken_last() {
        let mut stages = ForegroundStages::new();
        stages.extend([ServiceStage::Controller(1.0), ServiceStage::Disk(5.0)]);
        let mut io = IoRequest {
            unit: 2,
            page: PageId(7),
            stages,
            waiters: vec![3],
            ..IoRequest::default()
        };
        assert_eq!(io.current_stage(), None);
        assert_eq!(io.pop_stage(), Some(ServiceStage::Controller(1.0)));
        assert_eq!(io.current_stage(), Some(ServiceStage::Controller(1.0)));
        assert_eq!(io.pop_stage(), Some(ServiceStage::Disk(5.0)));
        assert_eq!(io.current_stage(), Some(ServiceStage::Disk(5.0)));
        // Past the last stage the cursor stays on it.
        assert_eq!(io.pop_stage(), None);
        assert_eq!(io.current_stage(), Some(ServiceStage::Disk(5.0)));
    }
}
