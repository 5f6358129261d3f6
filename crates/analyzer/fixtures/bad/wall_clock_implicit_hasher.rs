//@ expect: wall-clock
//@ crate: lockmgr
// A std hash container without a hasher argument uses RandomState: SipHash
// keyed from process entropy, a fresh key per map.  Where table growth
// happens, and with it a run's allocation count, then varies run to run.

pub struct Table {
    held: HashMap<u64, Vec<u64>>,
}

pub fn fresh_set() -> HashSet<u64> {
    HashSet::with_capacity(16)
}

pub fn fresh_table() -> Table {
    Table {
        held: HashMap::new(),
    }
}
