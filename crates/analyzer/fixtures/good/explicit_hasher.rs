//@ crate: core
// Maps keyed by simulator ids name their hasher: the `IdMap`/`IdSet`
// aliases, or a std container with the hasher as its last type argument.

pub struct Engine {
    holders: IdMap<PageId, u64>,
    versions: HashMap<PageId, Vec<(u64, u64)>, IdBuildHasher>,
    seen: HashSet<u64, IdBuildHasher>,
}

pub fn new_engine() -> Engine {
    Engine {
        holders: IdMap::default(),
        versions: HashMap::with_capacity_and_hasher(64, IdBuildHasher::default()),
        seen: HashSet::default(),
    }
}
