//! Slab arenas for the engine's hot per-event state.
//!
//! The seed engine kept in-flight I/O requests in a `HashMap<u64, IoRequest>`
//! and re-allocated a fresh [`Transaction`] (with its micro-operation deque)
//! for every arrival.  Both sit on the per-event hot path, so this module
//! replaces them with dense slab arenas:
//!
//! * [`IoArena`] — in-flight I/O requests under stable `u32` ids: the id *is*
//!   the slot index, so the per-event lookups in the I/O path are plain `Vec`
//!   indexing.  Freed slots are recycled LIFO, and a completed request stays
//!   in its slot as a carcass whose waiter list the next request on the slot
//!   reuses.
//! * [`TxArena`] — transaction slots.  A completed transaction's carcass
//!   stays in place and is *reused* by the next arrival on the slot, so its
//!   micro-operation deque's capacity survives and steady-state arrivals
//!   allocate nothing.
//! * [`TemplateTable`] — the shared transaction-template table.  The SOURCE
//!   has the workload generator fill a free entry's template in place, so a
//!   freed entry's reference buffer serves the next arrival; the input
//!   queue and the transaction slots hold `u32` indices instead of owning
//!   (and moving) reference strings, and per-template derived data (update
//!   flag, distinct written pages) is computed exactly once instead of at
//!   every commit.
//!
//! Slot recycling is deterministic (LIFO free lists, no hashing), and no
//! arena id ever reaches the lock manager — the lock manager keeps the
//! globally unique transaction ids whose numeric order defines its wake-up
//! order.

use dbmodel::{PageId, PartitionMap, TransactionTemplate};
use simkernel::time::SimTime;

use super::iorequest::IoRequest;
use super::transaction::Transaction;

/// In-flight I/O requests under stable `u32` ids.
///
/// An id stays valid until the request completes ([`IoArena::release`]);
/// every live request is referenced by exactly one pending event *or* one
/// resource queue position, so recycled slots can never be reached through a
/// stale id.  Like [`TxArena`], a released slot keeps its request in place,
/// and the next [`IoArena::claim`] of the slot reuses its waiter list.
#[derive(Default)]
pub(crate) struct IoArena {
    slots: Vec<IoRequest>,
    live: Vec<bool>,
    free: Vec<u32>,
}

impl IoArena {
    /// Registers `request` and returns its id with the live request, whose
    /// waiter list starts empty.  Reuses a freed slot, LIFO, and its
    /// waiter list's capacity.
    pub fn claim(&mut self, request: IoRequest) -> (u32, &mut IoRequest) {
        let id = match self.free.pop() {
            Some(id) => {
                debug_assert!(!self.live[id as usize]);
                let slot = &mut self.slots[id as usize];
                let mut waiters = std::mem::take(&mut slot.waiters);
                waiters.clear();
                *slot = IoRequest { waiters, ..request };
                self.live[id as usize] = true;
                id
            }
            None => {
                self.slots.push(request);
                self.live.push(true);
                (self.slots.len() - 1) as u32
            }
        };
        (id, &mut self.slots[id as usize])
    }

    /// The live request `id`, if any.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&IoRequest> {
        let idx = id as usize;
        (*self.live.get(idx)?).then(|| &self.slots[idx])
    }

    /// Mutable access to the live request `id`, if any.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> Option<&mut IoRequest> {
        let idx = id as usize;
        (*self.live.get(idx)?).then(|| &mut self.slots[idx])
    }

    /// Completes request `id`, freeing its slot for reuse.  The request
    /// stays in place until the slot is claimed again.
    pub fn release(&mut self, id: u32) {
        debug_assert!(self.live[id as usize], "release of a free io slot");
        self.live[id as usize] = false;
        self.free.push(id);
    }

    /// Iterates the live requests (diagnostics and warm-up resets).
    #[cfg(test)]
    pub fn live(&self) -> impl Iterator<Item = &IoRequest> {
        self.slots
            .iter()
            .zip(&self.live)
            .filter_map(|(io, &live)| live.then_some(io))
    }

    /// Iterates the live requests mutably (end-of-warm-up reset).
    pub fn live_mut(&mut self) -> impl Iterator<Item = &mut IoRequest> {
        self.slots
            .iter_mut()
            .zip(&self.live)
            .filter_map(|(io, &live)| live.then_some(io))
    }
}

/// Transaction slots with carcass reuse.
///
/// Mirrors the seed's `Vec<Option<Transaction>> + free_slots + slot_nodes`
/// triple, but a released slot keeps its [`Transaction`] in place so the next
/// arrival on the slot reuses the allocation.  Because the carcass survives
/// release, its `node` field doubles as the seed's `slot_nodes` side table:
/// late events can still route to the right node's resources.
#[derive(Default)]
pub(crate) struct TxArena {
    slots: Vec<Transaction>,
    live: Vec<bool>,
    free: Vec<usize>,
}

impl TxArena {
    /// The live transaction in `slot`, or `None` for freed/unknown slots
    /// (late events referencing a completed transaction).
    #[inline]
    pub fn get(&self, slot: usize) -> Option<&Transaction> {
        self.live
            .get(slot)
            .copied()
            .unwrap_or(false)
            .then(|| &self.slots[slot])
    }

    /// The live transaction in `slot`.
    ///
    /// # Panics
    /// Panics if the slot is free.
    #[inline]
    pub fn tx(&self, slot: usize) -> &Transaction {
        assert!(self.live[slot], "live transaction");
        &self.slots[slot]
    }

    /// Mutable access to the live transaction in `slot`.
    ///
    /// # Panics
    /// Panics if the slot is free.
    #[inline]
    pub fn tx_mut(&mut self, slot: usize) -> &mut Transaction {
        assert!(self.live[slot], "live transaction");
        &mut self.slots[slot]
    }

    /// True if `slot` holds a live transaction.
    #[inline]
    pub fn is_live(&self, slot: usize) -> bool {
        self.live.get(slot).copied().unwrap_or(false)
    }

    /// The node that last owned `slot` (valid even after release: the
    /// carcass stays in place and its `node` field is only rewritten at the
    /// next activation).
    #[cfg(test)]
    pub fn node_of(&self, slot: usize) -> usize {
        self.slots[slot].node
    }

    /// The node `slot`'s transaction currently executes at (the function-ship
    /// target while a shared-nothing call is outstanding; equal to
    /// [`TxArena::node_of`] otherwise).  Like `node_of`, valid after release.
    #[inline]
    pub fn exec_node_of(&self, slot: usize) -> usize {
        self.slots[slot].exec_node
    }

    /// Admits a transaction, reusing a freed slot (and its carcass's
    /// allocations) when one exists.  Returns the slot.
    pub fn activate(&mut self, id: u64, node: usize, template: u32, arrival: SimTime) -> usize {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(!self.live[slot]);
                self.slots[slot].reuse(id, node, template, arrival);
                self.live[slot] = true;
                slot
            }
            None => {
                self.slots
                    .push(Transaction::new(id, node, template, arrival));
                self.live.push(true);
                self.slots.len() - 1
            }
        }
    }

    /// Releases `slot` for reuse.  The carcass stays in place.
    pub fn release(&mut self, slot: usize) {
        debug_assert!(self.live[slot]);
        self.live[slot] = false;
        self.free.push(slot);
    }
}

/// One interned transaction template with its derived per-template data.
#[derive(Default)]
pub(crate) struct TemplateEntry {
    /// The reference string.
    pub template: TransactionTemplate,
    /// Distinct `(partition, page)` pairs written, sorted; computed once at
    /// interning instead of at every FORCE / invalidation / redo use.
    pub written_pages: Vec<(usize, PageId)>,
    /// Shared nothing: owning node per object reference (parallel to
    /// `template.refs`), hashed once at interning instead of at every
    /// execution (and re-execution after a deadlock restart).  Empty under
    /// data sharing.
    pub ref_owners: Vec<usize>,
    /// Shared nothing: distinct owners of `written_pages` (sorted) — the
    /// candidate participants of the commit exchange.  Empty under data
    /// sharing.
    pub written_owners: Vec<usize>,
    /// Whether any reference writes.
    pub is_update: bool,
}

/// The shared transaction-template table.
#[derive(Default)]
pub(crate) struct TemplateTable {
    entries: Vec<TemplateEntry>,
    free: Vec<u32>,
}

impl TemplateTable {
    /// Interns a transaction that `fill` writes in place into a free
    /// entry's template, reusing a freed entry (and its reference and
    /// derived-data buffers) LIFO.  Then precomputes the derived data
    /// (written pages, and — when a shared-nothing `map` is given — the
    /// owner per reference and the distinct owners of the written pages)
    /// and returns the table index.  When `fill` returns `false` (the
    /// workload is exhausted) the entry goes back on the free list and
    /// nothing is interned.
    pub fn fill(
        &mut self,
        map: Option<&PartitionMap>,
        fill: impl FnOnce(&mut TransactionTemplate) -> bool,
    ) -> Option<u32> {
        let id = self.free.pop().unwrap_or_else(|| {
            self.entries.push(TemplateEntry::default());
            (self.entries.len() - 1) as u32
        });
        let entry = &mut self.entries[id as usize];
        if !fill(&mut entry.template) {
            self.free.push(id);
            return None;
        }
        entry.is_update = entry.template.is_update();
        Self::collect_written_pages(&entry.template, &mut entry.written_pages);
        Self::collect_owners(
            &entry.template,
            &entry.written_pages,
            map,
            &mut entry.ref_owners,
            &mut entry.written_owners,
        );
        Some(id)
    }

    /// The interned entry `id`.
    #[inline]
    pub fn entry(&self, id: u32) -> &TemplateEntry {
        &self.entries[id as usize]
    }

    /// Releases entry `id` for reuse.
    pub fn free(&mut self, id: u32) {
        self.free.push(id);
    }

    fn collect_written_pages(template: &TransactionTemplate, out: &mut Vec<(usize, PageId)>) {
        out.clear();
        out.extend(
            template
                .refs
                .iter()
                .filter(|r| r.mode.is_write())
                .map(|r| (r.partition, r.page)),
        );
        out.sort_unstable_by_key(|(p, page)| (*p, page.0));
        out.dedup();
    }

    fn collect_owners(
        template: &TransactionTemplate,
        written_pages: &[(usize, PageId)],
        map: Option<&PartitionMap>,
        ref_owners: &mut Vec<usize>,
        written_owners: &mut Vec<usize>,
    ) {
        ref_owners.clear();
        written_owners.clear();
        let Some(map) = map else {
            return;
        };
        ref_owners.extend(template.refs.iter().map(|r| map.owner_of(r.page)));
        written_owners.extend(written_pages.iter().map(|&(_, page)| map.owner_of(page)));
        written_owners.sort_unstable();
        written_owners.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{AccessMode, ObjectId, ObjectRef};
    use storage::{BackgroundStages, ForegroundStages, ServiceStage};

    use super::super::iorequest::Completion;

    /// A request for `page` at `unit` without stages.
    fn request(unit: usize, page: u64) -> IoRequest {
        IoRequest {
            unit,
            node: 0,
            page: PageId(page),
            stages: ForegroundStages::new(),
            taken: 0,
            background: BackgroundStages::new(),
            completion: Completion::Plain,
            issued_at: 0.0,
            joinable: false,
            waiters: Vec::new(),
        }
    }

    #[test]
    fn io_arena_recycles_slots_lifo() {
        let mut arena = IoArena::default();
        let (a, _) = arena.claim(request(0, 1));
        let (b, _) = arena.claim(request(0, 2));
        assert_ne!(a, b);
        arena.release(a);
        assert!(arena.get(a).is_none());
        assert!(arena.get(b).is_some());
        assert!(arena.get(99).is_none());
        let (c, _) = arena.claim(request(0, 3));
        assert_eq!(c, a, "freed slot must be reused LIFO");
        assert_eq!(arena.live().count(), 2);
        assert_eq!(arena.get(b).map(|io| io.page), Some(PageId(2)));
        assert_eq!(arena.get_mut(c).map(|io| io.page), Some(PageId(3)));
    }

    #[test]
    fn io_arena_reuses_completed_requests_in_place() {
        let mut arena = IoArena::default();
        let mut first = request(1, 5);
        first.stages.push(ServiceStage::Disk(1.0));
        first.background.push(ServiceStage::Disk(1.0));
        first.completion = Completion::Checkpoint;
        first.joinable = true;
        let (id, io) = arena.claim(first);
        io.waiters.extend([2, 4, 5]);
        io.pop_stage();
        let waiters = io.waiters.as_ptr();
        arena.release(id);
        // The next claim gets the slot back with every field its own and the
        // waiter list emptied, its buffer intact.
        let (again, next) = arena.claim(request(3, 6));
        assert_eq!(again, id);
        assert_eq!((next.unit, next.node, next.page), (3, 0, PageId(6)));
        assert_eq!((next.taken, next.current_stage()), (0, None));
        assert!(next.stages.is_empty() && next.background.is_empty());
        assert_eq!(next.completion, Completion::Plain);
        assert!(!next.joinable);
        assert!(next.waiters.is_empty());
        assert_eq!(next.waiters.as_ptr(), waiters);
        assert_eq!(next.pop_stage(), None);
    }

    #[test]
    fn tx_arena_reuses_carcasses_and_remembers_nodes() {
        let mut arena = TxArena::default();
        let s0 = arena.activate(1, 2, 0, 0.0);
        assert!(arena.is_live(s0));
        assert_eq!(arena.node_of(s0), 2);
        arena
            .tx_mut(s0)
            .micro
            .push_back(super::super::transaction::MicroOp::Complete);
        arena.release(s0);
        assert!(!arena.is_live(s0));
        assert!(arena.get(s0).is_none());
        // The node routing survives release (late events).
        assert_eq!(arena.node_of(s0), 2);
        let s1 = arena.activate(2, 0, 3, 5.0);
        assert_eq!(s1, s0, "carcass must be reused");
        let tx = arena.tx(s1);
        assert_eq!((tx.id, tx.node, tx.template, tx.arrival), (2, 0, 3, 5.0));
        assert!(tx.micro.is_empty(), "reuse must clear the micro queue");
    }

    /// Interns `template` the way a generator fills an entry: in place.
    fn intern(
        table: &mut TemplateTable,
        template: &TransactionTemplate,
        map: Option<&PartitionMap>,
    ) -> u32 {
        let filled = table.fill(map, |t| {
            t.tx_type = template.tx_type;
            t.refs.clear();
            t.refs.extend_from_slice(&template.refs);
            true
        });
        filled.expect("the fill succeeds")
    }

    #[test]
    fn template_table_precomputes_written_pages() {
        let template = TransactionTemplate {
            tx_type: 0,
            refs: vec![
                ObjectRef {
                    partition: 1,
                    page: PageId(5),
                    object: ObjectId(50),
                    mode: AccessMode::Write,
                },
                ObjectRef {
                    partition: 0,
                    page: PageId(9),
                    object: ObjectId(90),
                    mode: AccessMode::Read,
                },
                ObjectRef {
                    partition: 1,
                    page: PageId(5),
                    object: ObjectId(51),
                    mode: AccessMode::Write,
                },
            ],
        };
        let mut table = TemplateTable::default();
        let id = intern(&mut table, &template, None);
        let entry = table.entry(id);
        assert_eq!(entry.template, template);
        assert!(entry.is_update);
        assert_eq!(entry.written_pages, vec![(1, PageId(5))]);
        assert!(entry.ref_owners.is_empty(), "no owners under data sharing");
        assert!(entry.written_owners.is_empty());
        table.free(id);
        let read_only = TransactionTemplate {
            tx_type: 1,
            refs: vec![ObjectRef {
                partition: 0,
                page: PageId(1),
                object: ObjectId(1),
                mode: AccessMode::Read,
            }],
        };
        let id2 = intern(&mut table, &read_only, None);
        assert_eq!(id2, id, "freed entry must be reused");
        let entry = table.entry(id2);
        assert!(!entry.is_update);
        assert!(entry.written_pages.is_empty());
    }

    #[test]
    fn template_table_interns_shared_nothing_owners() {
        let mk_ref = |page: u64, write: bool| ObjectRef {
            partition: 0,
            page: PageId(page),
            object: ObjectId(page),
            mode: if write {
                AccessMode::Write
            } else {
                AccessMode::Read
            },
        };
        // Range map over 4 pages × 2 nodes: pages 0-1 → node 0, 2-3 → node 1.
        let map = PartitionMap::range(2, 1, 4);
        let template = TransactionTemplate {
            tx_type: 0,
            refs: vec![mk_ref(0, false), mk_ref(2, true), mk_ref(3, true)],
        };
        let mut table = TemplateTable::default();
        let id = intern(&mut table, &template, Some(&map));
        let entry = table.entry(id);
        assert_eq!(entry.ref_owners, vec![0, 1, 1]);
        assert_eq!(entry.written_owners, vec![1], "distinct owners, deduped");
        // Recycled entries recompute (and clear) the owner buffers.
        table.free(id);
        let id2 = intern(
            &mut table,
            &TransactionTemplate {
                tx_type: 0,
                refs: vec![mk_ref(1, false)],
            },
            None,
        );
        assert_eq!(id2, id);
        assert!(table.entry(id2).ref_owners.is_empty());
        assert!(table.entry(id2).written_owners.is_empty());
    }

    #[test]
    fn template_table_refills_freed_entries_in_place() {
        let mk_ref = |page: u64| ObjectRef {
            partition: 0,
            page: PageId(page),
            object: ObjectId(page),
            mode: AccessMode::Write,
        };
        let mut table = TemplateTable::default();
        let long = TransactionTemplate {
            tx_type: 0,
            refs: (1..=8).map(mk_ref).collect(),
        };
        let id = intern(&mut table, &long, None);
        let refs = table.entry(id).template.refs.as_ptr();
        table.free(id);
        // An exhausted workload fills nothing, and the claimed entry goes
        // back on the free list ...
        assert_eq!(table.fill(None, |_| false), None);
        // ... so the next arrival still gets it, and its reference buffer.
        let short = TransactionTemplate {
            tx_type: 1,
            refs: vec![mk_ref(9)],
        };
        let again = intern(&mut table, &short, None);
        assert_eq!(again, id);
        let template = &table.entry(again).template;
        assert_eq!(*template, short);
        // Same buffer: same address, and the long transaction's capacity (a
        // fresh buffer for one reference would have less).
        assert_eq!(template.refs.as_ptr(), refs);
        assert!(template.refs.capacity() >= long.refs.len());
        assert_eq!(table.entry(again).written_pages, vec![(0, PageId(9))]);
    }
}
