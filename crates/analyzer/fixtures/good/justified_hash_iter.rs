//@ crate: core
// An order-independent fold over a hash container is fine — when the
// justification says so inline, where the next reader sees it.

pub struct Stats {
    per_tx: IdMap<u64, f64>,
}

pub fn total(s: &Stats) -> f64 {
    // analyzer: allow(hash-iter): sum is order-independent
    s.per_tx.values().sum()
}

pub fn slowest(s: &Stats) -> Option<u64> {
    let it = s.per_tx.iter(); // analyzer: allow(hash-iter): max below breaks ties on the key
    it.max_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0))).map(|(k, _)| *k)
}
