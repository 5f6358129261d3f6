//! The pluggable storage-device abstraction.
//!
//! Every external device the engine can issue page I/O against — regular
//! disks, cached disks (volatile and non-volatile), solid-state disks, and
//! NVEM accessed through a server interface — implements [`StorageDevice`].
//! Devices are *policy only*: [`StorageDevice::request`] decides which
//! service stages an I/O must pass through (an [`IoDecision`]) and maintains
//! cache state, while the transaction engine executes the stages against
//! queued `simkernel` resources so controller and disk-arm queueing is
//! modelled faithfully.
//!
//! A concrete topology is described by a list of [`DeviceSpec`]s in the
//! simulation configuration; [`DeviceSpec::build`] instantiates the matching
//! device model.  New topologies (an all-NVEM log device, a cached-disk
//! database with an SSD log, ...) are therefore configuration, not engine
//! code.

use dbmodel::PageId;
use simkernel::time::SimTime;

use crate::disk_unit::{DiskUnit, DiskUnitStats};
use crate::io::{IoDecision, IoKind};
use crate::nvem::{NvemDevice, NvemDeviceParams};
use crate::params::DiskUnitParams;

/// A pluggable external storage device.
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
///   [`DeviceSpec::num_controllers`] and [`DeviceSpec::num_disks`].
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

    /// Minimal foreground service time of an access that misses every cache
    /// (used for documentation and sanity checks; no queueing).
    fn uncached_latency(&self) -> SimTime;
}

/// Configuration of one storage device slot.
///
/// The engine builds a [`StorageDevice`] trait object per spec and creates
/// the controller/disk-server resources the device's service stages queue at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceSpec {
    /// A disk unit (regular, volatile cache, non-volatile cache, or SSD).
    DiskUnit(DiskUnitParams),
    /// NVEM accessed through a server interface (e.g. an all-NVEM log
    /// device): every request is absorbed at NVEM speed, no disk stage ever.
    NvemServer(NvemDeviceParams),
}

impl From<DiskUnitParams> for DeviceSpec {
    fn from(params: DiskUnitParams) -> Self {
        DeviceSpec::DiskUnit(params)
    }
}

impl From<NvemDeviceParams> for DeviceSpec {
    fn from(params: NvemDeviceParams) -> Self {
        DeviceSpec::NvemServer(params)
    }
}

impl DeviceSpec {
    /// Instantiates the device model for this spec.
    pub fn build(&self, name: impl Into<String>) -> Box<dyn StorageDevice> {
        match *self {
            DeviceSpec::DiskUnit(params) => Box::new(DiskUnit::new(name, params)),
            DeviceSpec::NvemServer(params) => Box::new(NvemDevice::new(name, params)),
        }
    }

    /// Number of controller servers the engine must provide.
    pub fn num_controllers(&self) -> usize {
        match *self {
            DeviceSpec::DiskUnit(p) => p.num_controllers.max(1),
            DeviceSpec::NvemServer(p) => p.num_servers.max(1),
        }
    }

    /// Number of disk servers the engine must provide (1 for devices that
    /// never emit a disk stage, so the resource exists but stays idle).
    pub fn num_disks(&self) -> usize {
        match *self {
            DeviceSpec::DiskUnit(p) => p.num_disks.max(1),
            DeviceSpec::NvemServer(_) => 1,
        }
    }

    /// The disk-unit parameters of a [`DeviceSpec::DiskUnit`] spec.
    ///
    /// # Panics
    /// Panics when called on a non-disk spec; use it only where the
    /// configuration is known to describe a disk unit (presets, tests).
    pub fn disk(&self) -> &DiskUnitParams {
        match self {
            DeviceSpec::DiskUnit(p) => p,
            other => panic!("device spec {other:?} is not a disk unit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DiskUnitKind;

    #[test]
    fn disk_spec_builds_a_disk_unit() {
        let spec: DeviceSpec = DiskUnitParams::database_disks(DiskUnitKind::Regular, 4, 16).into();
        assert_eq!(spec.num_controllers(), 4);
        assert_eq!(spec.num_disks(), 16);
        let mut dev = spec.build("db");
        assert_eq!(dev.name(), "db");
        let d = dev.request(IoKind::Read, PageId(1));
        assert!(d.touches_disk_in_foreground());
        assert!((dev.uncached_latency() - 16.4).abs() < 1e-9);
    }

    #[test]
    fn nvem_spec_builds_an_nvem_device() {
        let spec: DeviceSpec = NvemDeviceParams::default().into();
        assert_eq!(spec.num_disks(), 1);
        let mut dev = spec.build("nvem-log");
        let d = dev.request(IoKind::Write, PageId(9));
        assert!(!d.touches_disk_in_foreground());
        assert!(d.absorbed_write);
    }

    #[test]
    #[should_panic(expected = "not a disk unit")]
    fn disk_accessor_panics_for_nvem_spec() {
        let spec: DeviceSpec = NvemDeviceParams::default().into();
        let _ = spec.disk();
    }
}
