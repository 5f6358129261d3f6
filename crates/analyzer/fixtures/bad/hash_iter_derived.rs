//@ expect: hash-iter
//@ crate: lockmgr
// The set was looked up out of a map-of-sets: the binding inherits the
// hash container's unordered iteration.

pub struct Graph {
    edges: IdMap<u64, IdSet<u64>>,
}

pub fn first_blocker(g: &mut Graph, waiter: u64) -> Option<u64> {
    if let Some(blockers) = g.edges.remove(&waiter) {
        for b in blockers.iter() {
            return Some(*b); // "first" depends on hash order
        }
    }
    None
}
