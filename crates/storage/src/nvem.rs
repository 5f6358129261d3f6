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
//! this module only carries the device parameters.  There is no NVEM server
//! queue: the engine charges a transaction's access as a CPU burst of
//! [`NvemParams::synchronous_cost`] on the accessing node's CPUs.

use simkernel::time::{self, SimTime};

/// NVEM device parameters (Table 3.4 / Table 4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvemParams {
    /// Average access time per page move between main memory and NVEM (ms).
    pub access_time: SimTime,
    /// CPU instructions charged per NVEM access (page-move instruction plus
    /// bookkeeping; 300 in Table 4.1).
    pub instr_per_access: f64,
}

impl Default for NvemParams {
    fn default() -> Self {
        Self {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_access_time_is_50_microseconds() {
        let p = NvemParams::default();
        assert!((p.access_time - 0.05).abs() < 1e-12);
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
