//! Cross-node buffer coherence for the data-sharing architecture.
//!
//! Multiple computing modules buffering pages of the shared database must
//! not serve stale copies after another node commits an update.  Two
//! protocols are modelled (selected by
//! [`CoherenceParams`](crate::config::CoherenceParams)):
//!
//! * **Broadcast invalidation** (default, the paper's §3.2 behaviour): a
//!   committed update drops the stale copies of its written pages from every
//!   other node's buffer pool at commit time.  Instead of broadcasting to
//!   all nodes, the engine consults a page → holders index — a bitmask of
//!   the nodes whose pool holds a buffered copy
//!   ([`bufmgr::BufferManager::holds_page`]) — so the fan-out touches only
//!   actual holders.  A bit is set when a fetch buffers the page and
//!   cleared as soon as the pool stops holding it: after an eviction the
//!   pool reports (a main-memory victim that does not migrate into the NVEM
//!   cache, or an NVEM-cache victim) and after an invalidation.  An entry
//!   whose mask reaches zero is deleted, so the index never outgrows what
//!   the pools hold.  Skipping the nodes outside the mask is safe because
//!   [`bufmgr::BufferManager::invalidate_page`] on a node without a copy is
//!   a complete no-op; debug builds assert exactly this for every node
//!   outside the mask, proving the index path equivalent to the broadcast
//!   it replaced.
//!
//! * **On-request validation**: commit sends no messages; it only drops
//!   the other nodes from each written page's holder mask, leaving their
//!   copies buffered.  Under this protocol a bit therefore marks a
//!   *current* copy: a copy is stale exactly when its node holds the page
//!   but its bit is unset, i.e. another node committed the page since this
//!   node's last reference or own commit.  A reference that finds its
//!   node's copy stale discards the copy, pays a validation message round
//!   trip, and re-fetches — turning the stale hit into a miss.  A fresh hit
//!   costs nothing extra (the check piggybacks on the lock request's
//!   message).  The re-fetch sets the bit again.
//!
//! Crash recovery runs on one node only, so no dirty-page-table entry ever
//! meets a coherence protocol: neither protocol touches the tables.
//!
//! Orthogonally, **direct page transfer** replaces the disk re-read of a
//! miss whose page is currently buffered at another node with a modelled
//! message round trip plus a memory-to-memory copy burst from that donor
//! node (falling back to the disk read when no node holds a current copy).

use std::collections::hash_map::Entry;
use std::time::Instant;

use bufmgr::PageOp;
use dbmodel::{PageId, WorkloadGenerator};
use simkernel::time::instr_time;

use crate::config::{CoherenceProtocol, PageTransfer};

use super::transaction::MicroOp;
use super::Simulation;

impl<W: WorkloadGenerator> Simulation<W> {
    /// True when cross-node coherence exists at all: several computing
    /// modules buffer pages of the *shared* database.  Shared-nothing runs
    /// cache a page only at its owner, so no stale copy can ever exist.
    pub(super) fn coherence_active(&self) -> bool {
        self.nodes.len() > 1 && self.partition_map.is_none()
    }

    /// Registers `node` as a holder of `page` (called while coherence is
    /// active, at every reference that missed main memory and so fetched
    /// the page into the node's pool; under on-request validation this
    /// marks the node's copy current).  A main-memory hit needs no call:
    /// the pool holds the page, so its bit is set, and on-request
    /// validation has already turned a stale hit into a miss.
    /// Node counts are capped at 64 by config validation, so one `u64`
    /// bitmask per page suffices.
    pub(super) fn note_holder(&mut self, node: usize, page: PageId) {
        *self.holders.entry(page).or_insert(0) |= 1u64 << node;
    }

    /// True if `node`'s bit for `page` is set in the holders index.
    pub(super) fn has_holder_bit(&self, node: usize, page: PageId) -> bool {
        self.holders
            .get(&page)
            .is_some_and(|mask| mask & (1u64 << node) != 0)
    }

    /// Clears `node`'s holder bit for `page` if its pool no longer holds
    /// the page (called while coherence is active, for the page a buffer
    /// call reported evicted), deleting the entry once no holder remains.
    ///
    /// Kept out of line: inlined into `buffer_fetch` and `op_force_pages`
    /// it moved the micro-operation dispatch out of `advance`, which cost
    /// `ds16-nvemlog` about 3% of its simulated transactions per second.
    #[inline(never)]
    pub(super) fn release_holder(&mut self, node: usize, page: PageId) {
        if self.nodes[node].bufmgr.holds_page(page) {
            return;
        }
        if let Entry::Occupied(mut mask) = self.holders.entry(page) {
            *mask.get_mut() &= !(1u64 << node);
            if *mask.get() == 0 {
                mask.remove();
            }
        }
    }

    /// Commit-time coherence fan-out for the transaction in `slot`
    /// committing on `node`: if it updated, invalidates the written pages'
    /// holders (broadcast protocol) or drops them from the holder masks
    /// (on-request validation).  No-op on single-node and shared-nothing
    /// runs.  The wall-clock time spent here feeds the kernel profile's
    /// commit-fan-out accounting.
    pub(super) fn commit_coherence(&mut self, node: usize, slot: usize) {
        if !self.coherence_active() || !self.txs.tx(slot).is_update {
            return;
        }
        // analyzer: allow(wall-clock): feeds KernelProfile only, never the report
        let t0 = Instant::now();
        let num_written = self.txs.tx(slot).written_pages.len();
        match self.config.coherence.protocol {
            CoherenceProtocol::BroadcastInvalidate => {
                for idx in 0..num_written {
                    let (_, page) = self.txs.tx(slot).written_pages[idx];
                    self.invalidate_holders(node, page);
                }
            }
            CoherenceProtocol::OnRequestValidate => {
                for idx in 0..num_written {
                    let (_, page) = self.txs.tx(slot).written_pages[idx];
                    // The committer's own copy is the new version, even if
                    // another node's commit left it stale since its
                    // reference; the other holders' copies stay buffered
                    // until validate_reference catches them.
                    if self.nodes[node].bufmgr.holds_page(page) {
                        self.holders.insert(page, 1u64 << node);
                    } else {
                        self.holders.remove(&page);
                    }
                }
            }
        }
        self.fanout_ns += t0.elapsed().as_nanos() as u64;
        self.fanout_commits += 1;
    }

    /// Drops the stale copies of `page` from every holder other than the
    /// committing node, clearing the bits of holders that hold nothing any
    /// more.  The mask is read and written in place, so the page is hashed
    /// once unless its last holder lets go.  Debug builds verify the index
    /// against the full broadcast: every node outside the mask must
    /// experience `invalidate_page` as a no-op (no buffered copy).
    fn invalidate_holders(&mut self, committer: usize, page: PageId) {
        let Some(mask) = self.holders.get_mut(&page) else {
            // No pool holds the page — an empty broadcast.  The committer's
            // copy left its pool before the commit (a memory-resident page
            // never enters one), and no other node holds the page either.
            debug_assert!(
                self.nodes.iter().all(|rt| !rt.bufmgr.holds_page(page)),
                "page {page:?} held by a node missing from the holders index"
            );
            return;
        };
        #[cfg(debug_assertions)]
        for (other, rt) in self.nodes.iter().enumerate() {
            if *mask & (1u64 << other) == 0 {
                debug_assert!(
                    !rt.bufmgr.holds_page(page),
                    "node {other} holds page {page:?} but its holder bit is unset: \
                     the index fan-out would diverge from a broadcast"
                );
            }
        }
        let mut pending = *mask & !(1u64 << committer);
        while pending != 0 {
            let other = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            // The bit stays only while something invalidation could still
            // reach remains (an NVEM entry spared because of an in-flight
            // write-back).
            if !self.nodes[other].bufmgr.invalidate_page(page) {
                *mask &= !(1u64 << other);
            }
        }
        if *mask == 0 {
            self.holders.remove(&page);
        }
    }

    /// On-request validation check for a reference to `page` on `node`,
    /// *before* the buffer lookup.  When the node's buffered copy is stale
    /// (held, but its holder bit is unset), the copy is discarded — the
    /// lookup that follows will miss and re-fetch — and the validation
    /// message round trip to charge is returned.
    pub(super) fn validate_reference(&mut self, node: usize, page: PageId) -> Option<f64> {
        if self.config.coherence.protocol != CoherenceProtocol::OnRequestValidate
            || !self.coherence_active()
        {
            return None;
        }
        if self.has_holder_bit(node, page) {
            return None; // the check piggybacks on the lock message
        }
        if !self.nodes[node].bufmgr.holds_page(page) {
            return None; // no copy: a plain miss, nothing to validate
        }
        self.nodes[node].bufmgr.discard_stale_copy(page);
        let round_trip = 2.0 * self.config.coherence.transfer_msg_ms;
        self.coherence_stats.stale_validations += 1;
        self.coherence_stats.validation_delay_ms += round_trip;
        Some(round_trip)
    }

    /// Converts the page operations of a buffer miss like
    /// [`Simulation::convert_page_ops`] (appending to `out`), but — when
    /// direct page transfer is configured and a donor node holds a current
    /// copy of `target` — the disk read of `target` is replaced by a
    /// request/response message round trip plus a memory-to-memory copy
    /// burst.  Eviction write-backs and other operations keep their
    /// positions; with no donor (or under disk re-read) the conversion is
    /// unchanged and the fallback is counted.
    pub(super) fn convert_page_ops_with_transfer(
        &mut self,
        requester: usize,
        target: PageId,
        ops: &[PageOp],
        out: &mut Vec<MicroOp>,
    ) {
        if self.config.coherence.page_transfer != PageTransfer::DirectTransfer {
            return self.convert_page_ops(ops, out);
        }
        let target_read =
            |op: &PageOp| matches!(op, PageOp::UnitRead { page, .. } if *page == target);
        if !ops.iter().any(target_read) {
            // NVEM-resident pages (and pure eviction traffic) have no disk
            // read to replace; only disk re-reads are transfer candidates.
            return self.convert_page_ops(ops, out);
        }
        if self.direct_transfer_donor(requester, target).is_none() {
            self.coherence_stats.transfer_fallback_reads += 1;
            return self.convert_page_ops(ops, out);
        }
        let coherence = self.config.coherence;
        let round_trip = 2.0 * coherence.transfer_msg_ms;
        let copy_ms = instr_time(coherence.transfer_copy_instr, self.config.cm.mips);
        self.coherence_stats.direct_transfers += 1;
        self.coherence_stats.transfer_delay_ms += round_trip;
        for op in ops {
            if target_read(op) {
                // Request to the donor, page copy back: one message round
                // trip, then the CPU copies the page into the local frame.
                out.push(MicroOp::RemoteDelay { ms: round_trip });
                out.push(MicroOp::CpuBurst {
                    ms: copy_ms,
                    nvem: false,
                });
            } else {
                self.convert_page_ops(std::slice::from_ref(op), out);
            }
        }
    }

    /// Picks the donor node for a direct cache-to-cache transfer of `page`
    /// to `requester`: the lowest-numbered other holder with a current copy
    /// (main-memory frame or fully destaged NVEM entry; under on-request
    /// validation a stale copy has no holder bit).  Returns `None` when no
    /// such node exists — the miss then falls back to its disk re-read.
    fn direct_transfer_donor(&self, requester: usize, page: PageId) -> Option<usize> {
        let mut pending = self.holders.get(&page).copied().unwrap_or(0) & !(1u64 << requester);
        while pending != 0 {
            let node = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            if self.nodes[node].bufmgr.has_current_copy(page) {
                return Some(node);
            }
        }
        None
    }
}
