//@ expect: hash-iter
//@ crate: core
// Iteration order of a HashMap differs across compiler versions (SipHash
// keys change); pushing values in that order into a report breaks the
// byte-identity goldens.

pub struct Stats {
    per_tx: HashMap<u64, f64, IdBuildHasher>,
}

pub fn dump(s: &Stats, out: &mut Vec<f64>) {
    for v in s.per_tx.values() {
        out.push(*v);
    }
}
