//@ crate: lockmgr
// A point lookup yields at most one value, so chaining it into a loop
// iterates nothing in hash order.

pub struct Manager {
    held: IdMap<u64, Vec<u64>>,
    waiting_on: IdMap<u64, u64>,
}

pub fn items_of(m: &Manager, t: u64) -> Vec<u64> {
    let holds = m.held.get(&t).map(Vec::as_slice).unwrap_or_default();
    let mut items = Vec::new();
    for &item in holds.iter().chain(m.waiting_on.get(&t)) {
        items.push(item);
    }
    items
}
