//! The storage-device abstraction.
//!
//! Every external device the engine issues page I/O against — regular
//! disks, cached disks (volatile and non-volatile) and solid-state disks —
//! is a [`DiskUnit`] behind the [`StorageDevice`] trait.  Devices are
//! *policy only*: [`StorageDevice::request`] decides which service stages an
//! I/O must pass through (an [`IoDecision`]) and maintains cache state,
//! while the transaction engine executes the stages against queued
//! `simkernel` resources so controller and disk-arm queueing is modelled
//! faithfully.
//!
//! A concrete topology is a list of [`DiskUnitParams`] in the simulation
//! configuration; [`DiskUnitParams::build`] instantiates the device model.

use dbmodel::PageId;

use crate::disk_unit::{DiskUnit, DiskUnitStats};
use crate::io::{IoDecision, IoKind};
use crate::params::DiskUnitParams;

/// An external storage device.
///
/// # Contract
///
/// * [`request`](StorageDevice::request) is called once per page I/O.  It
///   must return the foreground stages the requester waits for, optional
///   background (destage) stages, and update the device's cache state and
///   statistics.  It must not advance simulated time.
/// * [`destage_complete`](StorageDevice::destage_complete) is called by the
///   engine when a background destage for `page` has finished; the device
///   marks the frame clean (replaceable).
/// * [`stats`](StorageDevice::stats) /
///   [`reset_stats`](StorageDevice::reset_stats) expose and clear the
///   per-device counters; `reset_stats` (end of warm-up) must not disturb
///   cache contents.
/// * Foreground `Controller` stages queue at the device's controller
///   resource, `Disk` stages at its disk-server resource, and `Transmission`
///   stages are pure delays — the engine owns those resources, sized by
///   [`DiskUnitParams::num_controllers`] and [`DiskUnitParams::num_disks`].
pub trait StorageDevice: Send {
    /// The device's name (used in reports).
    fn name(&self) -> &str;

    /// Decides the service stages of one page I/O and updates cache state.
    fn request(&mut self, kind: IoKind, page: PageId) -> IoDecision;

    /// Informs the device that the asynchronous destage of `page` completed.
    fn destage_complete(&mut self, page: PageId);

    /// Current per-device counters.
    fn stats(&self) -> DiskUnitStats;

    /// Resets the counters (end of warm-up) without touching cache contents.
    fn reset_stats(&mut self);
}

impl DiskUnitParams {
    /// Instantiates the device model for this disk unit.
    pub fn build(&self, name: impl Into<String>) -> Box<dyn StorageDevice> {
        Box::new(DiskUnit::new(name, *self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DiskUnitKind;

    #[test]
    fn disk_spec_builds_a_disk_unit() {
        let spec = DiskUnitParams::database_disks(DiskUnitKind::Regular, 4, 16);
        let mut dev = spec.build("db");
        assert_eq!(dev.name(), "db");
        let d = dev.request(IoKind::Read, PageId(1));
        assert!(d.touches_disk_in_foreground());
        assert!((d.foreground_service_time() - 16.4).abs() < 1e-9);
    }
}
