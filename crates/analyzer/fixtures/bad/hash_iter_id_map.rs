//@ expect: hash-iter
//@ crate: bufmgr
// Declaring a map through the id-hasher alias does not order it: `IdMap` is
// a `HashMap`, so the "first" key below is whatever the hash puts first.

pub struct DirtyPages {
    entries: IdMap<PageId, u64>,
}

pub fn oldest(t: &DirtyPages) -> Option<PageId> {
    t.entries.keys().next().copied()
}
