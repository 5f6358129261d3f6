//! The engine's slab arena and the two arenas it serves.
//!
//! A [`Slab`] keeps items under stable `usize` ids that are plain indices,
//! so every per-event lookup is `Vec` indexing.  A released slot is reused
//! LIFO (no hashing, so reuse is deterministic), and its item stays in
//! place as a carcass whose buffers the next claim of the slot reuses.
//!
//! * [`IoArena`]: the in-flight I/O requests.  Every `IoStage` event and
//!   resource token names a request by its id, and a request claiming a
//!   slot keeps the carcass's waiter list.
//! * [`TxArena`]: one [`Transaction`] record per transaction in the system,
//!   from its arrival to its commit.  The SOURCE claims the record and the
//!   workload generator fills its reference string in place, so a
//!   committed transaction's buffers (references, derived data, micro
//!   operations) serve a later arrival and steady-state arrivals allocate
//!   nothing.
//!
//! A slot never decides an order: the lock manager's id carries the slot
//! below the admission number ([`tx_id`](super::transaction::tx_id)), so
//! ids order by admission.

use dbmodel::{PartitionMap, TransactionTemplate};
use simkernel::time::SimTime;

use super::iorequest::IoRequest;
use super::transaction::Transaction;

/// Items under stable `usize` ids, reusing released slots LIFO.
///
/// An id stays valid until [`Slab::release`]; after that the item stays in
/// place until the slot is claimed again.
#[derive(Default)]
pub(crate) struct Slab<T> {
    items: Vec<T>,
    live: Vec<bool>,
    free: Vec<usize>,
}

impl<T: Default> Slab<T> {
    /// Claims a slot and returns its id with its item: the carcass of the
    /// most recently released slot, or `T::default()` when the slab grows.
    pub fn claim(&mut self) -> (usize, &mut T) {
        let id = match self.free.pop() {
            Some(id) => {
                debug_assert!(!self.live[id], "claim of a live slot");
                self.live[id] = true;
                id
            }
            None => {
                self.items.push(T::default());
                self.live.push(true);
                self.items.len() - 1
            }
        };
        (id, &mut self.items[id])
    }
}

impl<T> Slab<T> {
    /// The live item `id`, if any.
    #[inline]
    pub fn get(&self, id: usize) -> Option<&T> {
        self.is_live(id).then(|| &self.items[id])
    }

    /// Mutable access to the live item `id`, if any.
    #[inline]
    pub fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        self.is_live(id).then(|| &mut self.items[id])
    }

    /// True if slot `id` is claimed.
    #[inline]
    pub fn is_live(&self, id: usize) -> bool {
        self.live.get(id).copied().unwrap_or(false)
    }

    /// Releases slot `id` for reuse.  Its item stays in place.
    pub fn release(&mut self, id: usize) {
        debug_assert!(self.live[id], "release of a free slot");
        self.live[id] = false;
        self.free.push(id);
    }

    /// The number of claimed slots.
    pub fn claimed(&self) -> usize {
        self.items.len() - self.free.len()
    }

    /// Iterates the live items.
    #[cfg(test)]
    pub fn live(&self) -> impl Iterator<Item = &T> {
        self.items
            .iter()
            .zip(&self.live)
            .filter_map(|(item, &live)| live.then_some(item))
    }

    /// Iterates the live items mutably (end-of-warm-up reset).
    pub fn live_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items
            .iter_mut()
            .zip(&self.live)
            .filter_map(|(item, &live)| live.then_some(item))
    }
}

/// The in-flight I/O requests.  Every live request is named by exactly one
/// pending event *or* one resource queue position, so no stale id reaches
/// a recycled slot.
pub(crate) type IoArena = Slab<IoRequest>;

impl IoArena {
    /// Registers `request` and returns its id with the live request, whose
    /// waiter list starts empty in the slot's reused buffer.
    pub fn claim_request(&mut self, request: IoRequest) -> (usize, &mut IoRequest) {
        let (id, slot) = self.claim();
        let mut waiters = std::mem::take(&mut slot.waiters);
        waiters.clear();
        *slot = IoRequest { waiters, ..request };
        (id, slot)
    }
}

/// One record per transaction in the system, from arrival to commit.
pub(crate) type TxArena = Slab<Transaction>;

impl TxArena {
    /// Claims the record of a transaction arriving at `arrival`, has `fill`
    /// write its reference string in place and derives the per-template
    /// data ([`Transaction::arrive`]).  When `fill` returns `false` (the
    /// workload is exhausted) the record goes back and `None` is returned.
    pub fn claim_arrival(
        &mut self,
        arrival: SimTime,
        map: Option<&PartitionMap>,
        fill: impl FnOnce(&mut TransactionTemplate) -> bool,
    ) -> Option<usize> {
        let (slot, tx) = self.claim();
        if !fill(&mut tx.template) {
            self.release(slot);
            return None;
        }
        tx.arrive(arrival, map);
        Some(slot)
    }

    /// The live transaction in `slot`.
    ///
    /// # Panics
    /// Panics if the slot is free.
    #[inline]
    pub fn tx(&self, slot: usize) -> &Transaction {
        self.get(slot).expect("live transaction")
    }

    /// Mutable access to the live transaction in `slot`.
    ///
    /// # Panics
    /// Panics if the slot is free.
    #[inline]
    pub fn tx_mut(&mut self, slot: usize) -> &mut Transaction {
        self.get_mut(slot).expect("live transaction")
    }

    /// The node `slot`'s transaction executes at: its home node, except
    /// while a shared-nothing transaction is function-shipped to a remote
    /// partition owner.  Read from the carcass, so it stays valid after
    /// release until the slot's next admission.
    #[inline]
    pub fn exec_node_of(&self, slot: usize) -> usize {
        self.items[slot].exec_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{AccessMode, ObjectId, ObjectRef, PageId};
    use storage::{BackgroundStages, ForegroundStages, ServiceStage};

    use super::super::iorequest::Completion;
    use super::super::transaction::MicroOp;

    /// A request for `page` at `unit` without stages.
    fn request(unit: usize, page: u64) -> IoRequest {
        IoRequest {
            unit,
            page: PageId(page),
            ..IoRequest::default()
        }
    }

    #[test]
    fn io_arena_recycles_slots_lifo() {
        let mut arena = IoArena::default();
        let (a, _) = arena.claim_request(request(0, 1));
        let (b, _) = arena.claim_request(request(0, 2));
        assert_ne!(a, b);
        arena.release(a);
        assert!(arena.get(a).is_none());
        assert!(arena.get(b).is_some());
        assert!(arena.get(99).is_none());
        assert_eq!(arena.claimed(), 1);
        let (c, _) = arena.claim_request(request(0, 3));
        assert_eq!(c, a, "freed slot must be reused LIFO");
        assert_eq!(arena.live().count(), 2);
        assert_eq!(arena.claimed(), 2);
        assert_eq!(arena.get(b).map(|io| io.page), Some(PageId(2)));
        assert_eq!(arena.get_mut(c).map(|io| io.page), Some(PageId(3)));
    }

    #[test]
    fn io_arena_reuses_completed_requests_in_place() {
        let mut arena = IoArena::default();
        let mut stages = ForegroundStages::new();
        stages.push(ServiceStage::Disk(1.0));
        let mut background = BackgroundStages::new();
        background.push(ServiceStage::Disk(1.0));
        let first = IoRequest {
            stages,
            background,
            completion: Completion::Checkpoint,
            joinable: true,
            ..request(1, 5)
        };
        let (id, io) = arena.claim_request(first);
        io.waiters.extend([2, 4, 5]);
        io.pop_stage();
        let waiters = io.waiters.as_ptr();
        arena.release(id);
        // The next claim gets the slot back with every field its own and the
        // waiter list emptied, its buffer intact.
        let (again, next) = arena.claim_request(request(3, 6));
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

    fn write_ref(page: u64) -> ObjectRef {
        ObjectRef {
            partition: 0,
            page: PageId(page),
            object: ObjectId(page),
            mode: AccessMode::Write,
        }
    }

    /// Claims a record for `template`, filled the way a generator fills it:
    /// in place.
    fn arrive(
        arena: &mut TxArena,
        template: &TransactionTemplate,
        arrival: SimTime,
        map: Option<&PartitionMap>,
    ) -> usize {
        let filled = arena.claim_arrival(arrival, map, |t| {
            t.tx_type = template.tx_type;
            t.refs.clear();
            t.refs.extend_from_slice(&template.refs);
            true
        });
        filled.expect("the fill succeeds")
    }

    #[test]
    fn tx_arena_reuses_carcasses_and_remembers_nodes() {
        let mut arena = TxArena::default();
        let s0 = arrive(&mut arena, &TransactionTemplate::default(), 0.0, None);
        assert!(arena.is_live(s0), "a record is live from arrival");
        let tx = arena.tx_mut(s0);
        assert_eq!(tx.id, 0, "not admitted yet");
        tx.admit(1 << 32, 2);
        tx.micro.push_back(MicroOp::Complete);
        arena.release(s0);
        assert!(!arena.is_live(s0));
        assert!(arena.get(s0).is_none());
        // The execution node survives release (late events).
        assert_eq!(arena.exec_node_of(s0), 2);
        let s1 = arrive(&mut arena, &TransactionTemplate::default(), 5.0, None);
        assert_eq!(s1, s0, "carcass must be reused");
        let tx = arena.tx_mut(s1);
        assert_eq!((tx.id, tx.arrival), (0, 5.0), "arrival is not admission");
        tx.admit(2 << 32, 0);
        assert_eq!((tx.node, tx.exec_node), (0, 0));
        assert!(tx.micro.is_empty(), "admission must clear the micro queue");
    }

    #[test]
    fn tx_arena_refills_released_records_in_place() {
        let mut arena = TxArena::default();
        let long = TransactionTemplate {
            tx_type: 0,
            refs: (1..=8).map(write_ref).collect(),
        };
        let slot = arrive(&mut arena, &long, 0.0, None);
        let refs = arena.tx(slot).template.refs.as_ptr();
        arena.release(slot);
        // An exhausted workload fills nothing, and the claimed record goes
        // back ...
        assert_eq!(arena.claim_arrival(1.0, None, |_| false), None);
        assert_eq!(arena.claimed(), 0);
        // ... so the next arrival still gets it, and its reference buffer.
        let short = TransactionTemplate {
            tx_type: 1,
            refs: vec![write_ref(9)],
        };
        let again = arrive(&mut arena, &short, 2.0, None);
        assert_eq!(again, slot);
        let tx = arena.tx(again);
        assert_eq!(tx.template, short);
        // Same buffer: same address, and the long transaction's capacity (a
        // fresh buffer for one reference would have less).
        assert_eq!(tx.template.refs.as_ptr(), refs);
        assert!(tx.template.refs.capacity() >= long.refs.len());
        assert_eq!(tx.written_pages, vec![(0, PageId(9))]);
    }

    #[test]
    fn arrival_precomputes_written_pages() {
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
        let mut arena = TxArena::default();
        let slot = arrive(&mut arena, &template, 0.0, None);
        let tx = arena.tx(slot);
        assert_eq!(tx.template, template);
        assert!(tx.is_update);
        assert_eq!(tx.written_pages, vec![(1, PageId(5))]);
        assert!(tx.ref_owners.is_empty(), "no owners under data sharing");
        assert!(tx.written_owners.is_empty());
        arena.release(slot);
        let read_only = TransactionTemplate {
            tx_type: 1,
            refs: vec![ObjectRef {
                mode: AccessMode::Read,
                ..write_ref(1)
            }],
        };
        let again = arrive(&mut arena, &read_only, 0.0, None);
        assert_eq!(again, slot, "the released record must be reused");
        let tx = arena.tx(again);
        assert!(!tx.is_update);
        assert!(tx.written_pages.is_empty());
    }

    #[test]
    fn arrival_derives_shared_nothing_owners() {
        let mk_ref = |page: u64, write: bool| ObjectRef {
            mode: if write {
                AccessMode::Write
            } else {
                AccessMode::Read
            },
            ..write_ref(page)
        };
        // Range map over 4 pages × 2 nodes: pages 0-1 → node 0, 2-3 → node 1.
        let map = PartitionMap::range(2, 1, 4);
        let template = TransactionTemplate {
            tx_type: 0,
            refs: vec![mk_ref(0, false), mk_ref(2, true), mk_ref(3, true)],
        };
        let mut arena = TxArena::default();
        let slot = arrive(&mut arena, &template, 0.0, Some(&map));
        let tx = arena.tx(slot);
        assert_eq!(tx.ref_owners, vec![0, 1, 1]);
        assert_eq!(tx.written_owners, vec![1], "distinct owners, deduped");
        // A reused record recomputes (and clears) the owner buffers.
        arena.release(slot);
        let read_only = TransactionTemplate {
            tx_type: 0,
            refs: vec![mk_ref(1, false)],
        };
        let again = arrive(&mut arena, &read_only, 0.0, None);
        assert_eq!(again, slot);
        assert!(arena.tx(again).ref_owners.is_empty());
        assert!(arena.tx(again).written_owners.is_empty());
    }
}
