//@ crate: core
// Unit tests may use wall clocks, unordered iteration and bare arithmetic:
// only production code feeds the deterministic schedule.

pub struct Stats {
    per_tx: IdMap<u64, f64>,
}

pub fn len(s: &Stats) -> usize {
    s.per_tx.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_scratchpad() {
        let t0 = std::time::Instant::now();
        let s = Stats { per_tx: HashMap::new() };
        for v in s.per_tx.values() {
            let _ = v.partial_cmp(&0.0);
        }
        assert!(t0.elapsed().as_secs() < 60);
    }
}
