//! Simulated time.
//!
//! All TPSIM quantities are expressed in **milliseconds** of simulated time,
//! stored as `f64`.  The paper's parameter tables use a mixture of units
//! (microseconds for NVEM, milliseconds for controllers and disks, MIPS for
//! CPU speeds); the helpers here perform those conversions in one place so the
//! rest of the code never multiplies by stray constants.

/// Simulated time / durations, in milliseconds.
pub type SimTime = f64;

/// One microsecond expressed in [`SimTime`] units.
pub const MICROSECOND: SimTime = 0.001;

/// One second expressed in [`SimTime`] units.
pub const SECOND: SimTime = 1000.0;

/// Converts a duration given in microseconds into [`SimTime`].
#[inline]
pub fn from_micros(us: f64) -> SimTime {
    us * MICROSECOND
}

/// Time (ms) to execute `instructions` on a CPU rated at `mips` million
/// instructions per second.
///
/// The paper charges e.g. 40,000 instructions per object reference on a
/// 50-MIPS engine, i.e. 0.8 ms.
#[inline]
pub fn instr_time(instructions: f64, mips: f64) -> SimTime {
    debug_assert!(mips > 0.0, "MIPS rate must be positive");
    // instructions / (mips * 1e6) seconds == instructions / (mips * 1e3) ms
    instructions / (mips * 1000.0)
}

/// Mean inter-arrival time (ms) for a Poisson arrival process with
/// `per_second` arrivals per second.
#[inline]
pub fn interarrival_ms(per_second: f64) -> SimTime {
    debug_assert!(per_second > 0.0, "arrival rate must be positive");
    SECOND / per_second
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_time_matches_paper_pathlength() {
        // 250,000 instructions at 50 MIPS = 5 ms per transaction (section 4.1).
        let t = instr_time(250_000.0, 50.0);
        assert!((t - 5.0).abs() < 1e-9);
    }

    #[test]
    fn object_reference_cost() {
        // 40,000 instructions at 50 MIPS = 0.8 ms.
        assert!((instr_time(40_000.0, 50.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn micros_conversion() {
        // The NVEM access time of 50 microseconds is 0.05 ms.
        assert!((from_micros(50.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn interarrival_for_500_tps() {
        assert!((interarrival_ms(500.0) - 2.0).abs() < 1e-12);
    }
}
