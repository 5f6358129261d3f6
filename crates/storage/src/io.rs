//! I/O plans: the service stages a request must pass through.
//!
//! The device models *decide* which stages an I/O needs (controller, disk,
//! transmission) and whether parts of the work can happen asynchronously
//! (destaging a write from a non-volatile cache to disk); the transaction
//! engine *executes* the stages against queued resources.
//!
//! A decision is made once per page I/O, so its stage lists are stored
//! inline ([`ForegroundStages`], [`BackgroundStages`]) sized to what a
//! device can produce: a full access is controller → disk → transmission,
//! and an absorbed write destages with one disk stage.

use simkernel::time::SimTime;
use simkernel::InlineVec;

/// Whether an I/O is a read or a write of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Read a page from the unit into main memory.
    Read,
    /// Write a page from main memory to the unit.
    Write,
}

/// One service stage of an I/O at a disk unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceStage {
    /// Service at one of the unit's controllers for the given time (ms).
    Controller(SimTime),
    /// Service at one of the unit's disk servers for the given time (ms).
    Disk(SimTime),
    /// Page transmission between main memory and the unit (ms); assumed not to
    /// be a bottleneck, so it is a plain delay without queueing.
    Transmission(SimTime),
}

/// The unused slots of inline stage lists hold a zero-length transmission:
/// a stage that, if it were ever served, would delay nothing.
impl Default for ServiceStage {
    fn default() -> Self {
        ServiceStage::Transmission(0.0)
    }
}

/// Most foreground stages one device decision carries (controller, disk,
/// transmission).
pub const MAX_FOREGROUND_STAGES: usize = 3;

/// Most background stages one device decision carries (the destage of an
/// absorbed write).
pub const MAX_BACKGROUND_STAGES: usize = 1;

/// The foreground stages of one decision, stored inline.
pub type ForegroundStages = InlineVec<ServiceStage, MAX_FOREGROUND_STAGES>;

/// The background stages of one decision, stored inline.
pub type BackgroundStages = InlineVec<ServiceStage, MAX_BACKGROUND_STAGES>;

impl ServiceStage {
    /// The stage's service time, ignoring queueing.
    pub fn service_time(&self) -> SimTime {
        match *self {
            ServiceStage::Controller(t) | ServiceStage::Disk(t) | ServiceStage::Transmission(t) => {
                t
            }
        }
    }
}

/// The decision a disk unit makes for one I/O request.
#[derive(Debug, Clone, PartialEq)]
pub struct IoDecision {
    /// Stages the requester must wait for before the I/O counts as done.
    pub foreground: ForegroundStages,
    /// Stages performed asynchronously after the foreground part completed
    /// (e.g. the destage of an absorbed write).  The requester does not wait.
    pub background: BackgroundStages,
}

impl IoDecision {
    /// Sum of the foreground service times (the minimal I/O latency, ignoring
    /// queueing).
    pub fn foreground_service_time(&self) -> SimTime {
        self.foreground.iter().map(ServiceStage::service_time).sum()
    }

    /// True if the request needs a synchronous disk access.
    #[cfg(test)]
    pub fn touches_disk_in_foreground(&self) -> bool {
        self.foreground
            .iter()
            .any(|s| matches!(s, ServiceStage::Disk(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_times_add_up() {
        let mut d = IoDecision {
            foreground: ForegroundStages::new(),
            background: BackgroundStages::new(),
        };
        d.foreground.extend([
            ServiceStage::Controller(1.0),
            ServiceStage::Disk(15.0),
            ServiceStage::Transmission(0.4),
        ]);
        d.background.push(ServiceStage::Disk(15.0));
        assert!((d.foreground_service_time() - 16.4).abs() < 1e-12);
        assert!(d.touches_disk_in_foreground());
    }

    #[test]
    fn cache_hit_decision_has_no_disk_stage() {
        let mut d = IoDecision {
            foreground: ForegroundStages::new(),
            background: BackgroundStages::new(),
        };
        d.foreground.extend([
            ServiceStage::Controller(1.0),
            ServiceStage::Transmission(0.4),
        ]);
        assert!(!d.touches_disk_in_foreground());
        assert!((d.foreground_service_time() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn stage_service_time_accessor() {
        assert_eq!(ServiceStage::Controller(2.0).service_time(), 2.0);
        assert_eq!(ServiceStage::Disk(5.0).service_time(), 5.0);
        assert_eq!(ServiceStage::Transmission(0.4).service_time(), 0.4);
    }
}
