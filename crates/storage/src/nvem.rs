//! Non-volatile extended memory (NVEM) device parameters.
//!
//! NVEM (the paper's model of IBM Expanded Storage / Fujitsu SSU with battery
//! backup) is page-addressable semiconductor memory accessed *synchronously*
//! by special machine instructions: "accesses to ES are synchronous, i.e. the
//! CPU is not released during the page transfer" (§2).  All data transfers
//! between NVEM and disk must go through main memory.
//!
//! The contents of the NVEM (second-level database buffer, write buffer,
//! resident files) are managed by the DBMS buffer manager (`bufmgr` crate);
//! this module only carries the device parameters, the service model (one or
//! more NVEM servers) being provided by `simkernel::Resource` in the engine.

use simkernel::time::{self, SimTime};

/// NVEM device parameters (Table 3.4 / Table 4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvemParams {
    /// Number of NVEM servers (controllers) allowing concurrent page moves.
    pub num_servers: usize,
    /// Average access time per page move between main memory and NVEM (ms).
    pub access_time: SimTime,
    /// CPU instructions charged per NVEM access (page-move instruction plus
    /// bookkeeping; 300 in Table 4.1).
    pub instr_per_access: f64,
}

impl Default for NvemParams {
    fn default() -> Self {
        Self {
            num_servers: 1,
            access_time: time::from_micros(50.0),
            instr_per_access: 300.0,
        }
    }
}

impl NvemParams {
    /// Total CPU-held time of one synchronous NVEM access on a CPU rated at
    /// `mips`: the instruction overhead plus the page transfer itself.
    pub fn synchronous_cost(&self, mips: f64) -> SimTime {
        time::instr_time(self.instr_per_access, mips) + self.access_time
    }
}

/// Parameters of NVEM accessed through a *server interface* — the
/// [`StorageDevice`](crate::device::StorageDevice) flavour of extended memory, used when a configuration
/// allocates a whole device slot (e.g. the log) to NVEM instead of modelling
/// the access as a synchronous CPU instruction.
///
/// Unlike the synchronous [`NvemParams`] path, requests to an NVEM device
/// queue at its servers like any other device, which models an NVEM reached
/// via an asynchronous page-transfer interface (channel-attached expanded
/// storage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvemDeviceParams {
    /// Number of NVEM servers handling concurrent page transfers.
    pub num_servers: usize,
    /// Service time per page transfer at a server (ms).
    pub access_time: SimTime,
    /// Page transmission delay between main memory and the NVEM (ms); a pure
    /// delay without queueing.
    pub transmission_delay: SimTime,
}

impl Default for NvemDeviceParams {
    fn default() -> Self {
        Self {
            num_servers: 1,
            access_time: time::from_micros(50.0),
            transmission_delay: time::from_micros(25.0),
        }
    }
}

/// NVEM with a device (server) interface: every read and write is absorbed
/// at NVEM speed, no request ever touches a disk.
#[derive(Debug)]
pub struct NvemDevice {
    name: String,
    params: NvemDeviceParams,
    stats: crate::disk_unit::DiskUnitStats,
}

impl NvemDevice {
    /// Creates an NVEM device.
    pub fn new(name: impl Into<String>, params: NvemDeviceParams) -> Self {
        Self {
            name: name.into(),
            params,
            stats: Default::default(),
        }
    }

    /// The device parameters.
    pub fn params(&self) -> &NvemDeviceParams {
        &self.params
    }

    fn access(&self) -> crate::io::ForegroundStages {
        let mut stages = crate::io::ForegroundStages::new();
        stages.push(crate::io::ServiceStage::Controller(self.params.access_time));
        stages.push(crate::io::ServiceStage::Transmission(
            self.params.transmission_delay,
        ));
        stages
    }
}

impl crate::device::StorageDevice for NvemDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn request(
        &mut self,
        kind: crate::io::IoKind,
        _page: dbmodel::PageId,
    ) -> crate::io::IoDecision {
        match kind {
            crate::io::IoKind::Read => {
                self.stats.reads += 1;
                self.stats.read_hits += 1;
            }
            crate::io::IoKind::Write => {
                self.stats.writes += 1;
                self.stats.write_hits += 1;
                self.stats.absorbed_writes += 1;
            }
        }
        crate::io::IoDecision {
            foreground: self.access(),
            background: crate::io::BackgroundStages::new(),
            cache_hit: true,
            absorbed_write: kind == crate::io::IoKind::Write,
        }
    }

    fn destage_complete(&mut self, _page: dbmodel::PageId) {
        // NVEM never destages: the device itself is non-volatile.
    }

    fn stats(&self) -> crate::disk_unit::DiskUnitStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = Default::default();
    }

    fn uncached_latency(&self) -> SimTime {
        self.params.access_time + self.params.transmission_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::StorageDevice;
    use crate::io::IoKind;
    use dbmodel::PageId;

    #[test]
    fn nvem_device_absorbs_everything() {
        let mut d = NvemDevice::new("nvem", NvemDeviceParams::default());
        assert_eq!(d.name(), "nvem");
        let r = d.request(IoKind::Read, PageId(1));
        let w = d.request(IoKind::Write, PageId(2));
        assert!(r.cache_hit && !r.absorbed_write);
        assert!(w.cache_hit && w.absorbed_write);
        assert!(!r.touches_disk_in_foreground());
        assert!(w.background.is_empty());
        let s = StorageDevice::stats(&d);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.absorbed_writes, 1);
        d.destage_complete(PageId(2));
        d.reset_stats();
        assert_eq!(StorageDevice::stats(&d).reads, 0);
        assert!((d.uncached_latency() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn default_access_time_is_50_microseconds() {
        let p = NvemParams::default();
        assert!((p.access_time - 0.05).abs() < 1e-12);
        assert_eq!(p.num_servers, 1);
    }

    #[test]
    fn synchronous_cost_includes_instruction_overhead() {
        let p = NvemParams::default();
        // 300 instructions at 50 MIPS = 6 microseconds, plus the 50 microsecond
        // page move = 56 microseconds.
        let cost = p.synchronous_cost(50.0);
        assert!((cost - 0.056).abs() < 1e-9, "cost {cost}");
    }
}
