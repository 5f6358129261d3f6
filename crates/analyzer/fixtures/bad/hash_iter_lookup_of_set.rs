//@ expect: hash-iter
//@ crate: lockmgr
// A lookup on a map of sets yields a whole set: looping over it follows
// the set's hash order.

pub struct Graph {
    edges: IdMap<u64, IdSet<u64>>,
}

pub fn first_blocker(g: &Graph, waiter: u64) -> Option<u64> {
    for &b in g.edges.get(&waiter).into_iter().flatten() {
        return Some(b); // "first" depends on hash order
    }
    None
}
