//! In-flight I/O requests.
//!
//! An I/O request carries the remaining service stages decided by the disk
//! unit (controller → disk → transmission), the transaction waiting for it (if
//! any), and the follow-up work to perform on completion (waking the waiter,
//! releasing a group-commit batch or the readers that joined a coalesced
//! read, notifying the buffer manager about an asynchronous write, spawning
//! the background destage of an absorbed write).
//!
//! Requests live in the engine's [`IoArena`]; the stage list is a `Vec` plus a
//! cursor (no per-request deque conversion).  A completed request stays in
//! its arena slot and the next request claiming the slot reuses it, so its
//! stage and waiter lists keep their capacity and issuing an I/O allocates
//! nothing in steady state.
//!
//! [`IoArena`]: super::arena::IoArena

use dbmodel::PageId;
use simkernel::time::SimTime;
use storage::ServiceStage;

/// Which of the unit's resources the request currently holds (or waits for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeldResource {
    /// A controller of the unit.
    Controller,
    /// A disk server of the unit.
    Disk,
}

/// One in-flight I/O request.
#[derive(Debug)]
pub(crate) struct IoRequest {
    /// The disk unit serving the request.
    pub unit: usize,
    /// The node whose buffer manager issued the request (routes buffer
    /// notifications in data-sharing runs; 0 in a single-node run).
    pub node: usize,
    /// The page concerned.
    pub page: PageId,
    /// Transaction slot waiting for the foreground part, if any.
    pub waiter: Option<usize>,
    /// Foreground stages as decided by the device.
    stages: Vec<ServiceStage>,
    /// Index of the next stage in `stages` (already-served prefix).
    next_stage: usize,
    /// Background stages to run after the foreground completes (destage of an
    /// absorbed write).
    pub background: Vec<ServiceStage>,
    /// Transaction slots of a group-commit batch parked on this log write,
    /// or of the readers that joined this read at a coalescing unit.
    pub group_waiters: Vec<usize>,
    /// Tell the buffer manager when this (asynchronous) write completes.
    pub notify_bufmgr: bool,
    /// Decrement the engine's log-write-buffer occupancy on completion.
    pub log_wb: bool,
    /// This request *is* a background destage; completion updates the disk
    /// unit's cache state.
    pub is_destage: bool,
    /// This request is a blocking read listed in its coalescing unit's
    /// in-flight reads; completion removes it from the list.
    pub joinable: bool,
    /// Issue time of a checkpoint log record; on completion the measured
    /// latency (including queueing) is charged as checkpoint overhead.
    pub checkpoint_issued_at: Option<SimTime>,
    /// Resource currently held (or queued for).
    pub held: Option<HeldResource>,
    /// Service time of the stage waiting for a resource grant.
    pub pending_service: SimTime,
}

impl IoRequest {
    /// Creates a request without stages.
    pub fn new(unit: usize, page: PageId, waiter: Option<usize>) -> Self {
        Self {
            unit,
            node: 0,
            page,
            waiter,
            stages: Vec::new(),
            next_stage: 0,
            background: Vec::new(),
            group_waiters: Vec::new(),
            notify_bufmgr: false,
            log_wb: false,
            is_destage: false,
            joinable: false,
            checkpoint_issued_at: None,
            held: None,
            pending_service: 0.0,
        }
    }

    /// Re-initialises a completed request for a new I/O, keeping the
    /// capacity of its stage and waiter lists.
    pub fn reuse(&mut self, unit: usize, page: PageId, waiter: Option<usize>) {
        self.unit = unit;
        self.node = 0;
        self.page = page;
        self.waiter = waiter;
        self.stages.clear();
        self.next_stage = 0;
        self.background.clear();
        self.group_waiters.clear();
        self.notify_bufmgr = false;
        self.log_wb = false;
        self.is_destage = false;
        self.joinable = false;
        self.checkpoint_issued_at = None;
        self.held = None;
        self.pending_service = 0.0;
    }

    /// Appends foreground stages.
    pub fn extend_stages(&mut self, stages: &[ServiceStage]) {
        self.stages.extend_from_slice(stages);
    }

    /// Hands this request's background stages over as `destage`'s
    /// foreground stages (the destage's empty list takes their place).
    pub fn pass_background_to(&mut self, destage: &mut IoRequest) {
        debug_assert!(destage.stages.is_empty() && destage.next_stage == 0);
        std::mem::swap(&mut self.background, &mut destage.stages);
    }

    /// Advances to (and returns) the next remaining foreground stage.
    #[inline]
    pub fn pop_stage(&mut self) -> Option<ServiceStage> {
        let stage = self.stages.get(self.next_stage).copied();
        if stage.is_some() {
            self.next_stage += 1;
        }
        stage
    }

    /// Number of foreground stages not yet served.
    #[cfg(test)]
    pub fn remaining_stages(&self) -> usize {
        self.stages.len() - self.next_stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_cursor_and_background_hand_over() {
        let mut io = IoRequest::new(2, PageId(7), Some(3));
        io.extend_stages(&[ServiceStage::Controller(1.0), ServiceStage::Disk(5.0)]);
        io.background.push(ServiceStage::Disk(5.0));
        assert_eq!(
            (io.unit, io.node, io.page, io.waiter),
            (2, 0, PageId(7), Some(3))
        );
        assert!(!io.notify_bufmgr && !io.log_wb && !io.is_destage && !io.joinable);
        assert!(io.group_waiters.is_empty());
        assert_eq!(io.checkpoint_issued_at, None);
        assert_eq!(io.remaining_stages(), 2);
        assert_eq!(io.pop_stage(), Some(ServiceStage::Controller(1.0)));
        assert_eq!(io.pop_stage(), Some(ServiceStage::Disk(5.0)));
        assert_eq!(io.remaining_stages(), 0);
        assert_eq!(io.pop_stage(), None);
        let mut destage = IoRequest::new(2, PageId(7), None);
        io.pass_background_to(&mut destage);
        assert!(io.background.is_empty());
        assert_eq!(destage.pop_stage(), Some(ServiceStage::Disk(5.0)));
    }

    #[test]
    fn reuse_resets_everything_but_keeps_buffers() {
        let mut io = IoRequest::new(2, PageId(7), Some(3));
        io.extend_stages(&[ServiceStage::Controller(1.0), ServiceStage::Disk(5.0)]);
        io.background.push(ServiceStage::Disk(5.0));
        io.group_waiters.extend([1, 2, 3]);
        io.node = 4;
        io.log_wb = true;
        io.joinable = true;
        io.checkpoint_issued_at = Some(9.0);
        io.pop_stage();
        let capacities = (io.stages.capacity(), io.group_waiters.capacity());
        io.reuse(0, PageId(11), None);
        assert_eq!(
            (io.unit, io.node, io.page, io.waiter),
            (0, 0, PageId(11), None)
        );
        assert_eq!(io.remaining_stages(), 0);
        assert_eq!(io.pop_stage(), None);
        assert!(io.background.is_empty() && io.group_waiters.is_empty());
        assert!(!io.log_wb && !io.joinable && !io.notify_bufmgr && !io.is_destage);
        assert_eq!(io.checkpoint_issued_at, None);
        assert_eq!(
            (io.stages.capacity(), io.group_waiters.capacity()),
            capacities
        );
    }
}
