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
//!   the nodes that may hold a buffered copy (or a dirty-page-table entry) —
//!   so the fan-out touches only actual holders.  The index is a
//!   *conservative superset*: bits are set on every buffer fetch, never
//!   cleared on eviction, and pruned lazily during commit fan-out.  That is
//!   safe because [`bufmgr::BufferManager::invalidate_page`] on a node
//!   without a copy and without a dirty-page-table entry is a complete
//!   no-op; debug builds assert exactly this for every node outside the
//!   mask, proving the index path equivalent to the broadcast it replaced.
//!
//! * **On-request validation**: commit only bumps a global per-page version
//!   number (no messages to other nodes); each node stamps its buffered
//!   copy with the version it fetched.  A reference that finds its copy's
//!   stamp behind the global version discards the copy, pays a validation
//!   message round trip, and re-fetches — turning the stale hit into a miss.
//!   A fresh hit costs nothing extra (the check piggybacks on the lock
//!   request's message).  Superseded dirty-page-table entries at other
//!   holders are cleared *eagerly at the remote commit* (pure local
//!   bookkeeping — no invalidation message is modelled, and the stale
//!   buffer copies themselves still wait for their next reference), so a
//!   fuzzy checkpoint between the commit and that reference records the
//!   true redo boundary rather than a superseded one.
//!
//! Orthogonally, **direct page transfer** replaces the disk re-read of a
//! miss whose page is currently buffered at another node with a modelled
//! message round trip plus a memory-to-memory copy burst from that donor
//! node (falling back to the disk read when no node holds a current copy).

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

    /// Registers `node` as a possible holder of `page` (called on every
    /// buffer fetch while coherence is active).  Node counts are capped at
    /// 64 by config validation, so one `u64` bitmask per page suffices.
    pub(super) fn note_holder(&mut self, node: usize, page: PageId) {
        *self.holders.entry(page).or_insert(0) |= 1u64 << node;
    }

    /// Commit-time coherence fan-out for the update transaction committing
    /// on `node` with template `template`: invalidates the written pages'
    /// holders (broadcast protocol) or bumps their global versions
    /// (on-request validation).  No-op on single-node and shared-nothing
    /// runs.  The wall-clock time spent here feeds the kernel profile's
    /// commit-fan-out accounting.
    pub(super) fn commit_coherence(&mut self, node: usize, template: u32, is_update: bool) {
        if !is_update || !self.coherence_active() {
            return;
        }
        // analyzer: allow(wall-clock): feeds KernelProfile only, never the report
        let t0 = Instant::now();
        let num_written = self.templates.entry(template).written_pages.len();
        match self.config.coherence.protocol {
            CoherenceProtocol::BroadcastInvalidate => {
                for idx in 0..num_written {
                    let (_, page) = self.templates.entry(template).written_pages[idx];
                    self.invalidate_holders(node, page);
                }
            }
            CoherenceProtocol::OnRequestValidate => {
                for idx in 0..num_written {
                    let (_, page) = self.templates.entry(template).written_pages[idx];
                    let version = self.page_versions.entry(page).or_insert(0);
                    *version += 1;
                    let version = *version;
                    // The committer's own copy is the new version.
                    self.node_versions[node].insert(page, version);
                    // Other holders' pending redo entries for the page are
                    // superseded by this commit; clear them eagerly (no
                    // message — version bumps are local bookkeeping) so
                    // checkpoints between now and the holders' next
                    // references record the true redo boundary.  The buffered
                    // copies stay: they are caught by validate_reference.
                    let mut pending =
                        self.holders.get(&page).copied().unwrap_or(0) & !(1u64 << node);
                    while pending != 0 {
                        let other = pending.trailing_zeros() as usize;
                        pending &= pending - 1;
                        self.nodes[other].bufmgr.clear_superseded_dpt(page);
                    }
                }
            }
        }
        self.fanout_ns += t0.elapsed().as_nanos() as u64;
        self.fanout_commits += 1;
    }

    /// Drops the stale copies of `page` from every holder other than the
    /// committing node, pruning holder bits that turn out to hold nothing
    /// any more.  Debug builds verify the index against the full broadcast:
    /// every node outside the mask must experience `invalidate_page` as a
    /// no-op (no buffered copy, no dirty-page-table entry).
    fn invalidate_holders(&mut self, committer: usize, page: PageId) {
        let Some(mask) = self.holders.get(&page).copied() else {
            // No node ever fetched the page — nothing can hold it.  (The
            // committer itself fetched it, so this arm is unreachable in
            // practice; keep it as the defensive equivalent of an empty
            // broadcast.)
            debug_assert!(
                self.nodes.iter().all(|rt| !rt.bufmgr.holds_page(page)),
                "page {page:?} held by a node missing from the holders index"
            );
            return;
        };
        #[cfg(debug_assertions)]
        for (other, rt) in self.nodes.iter().enumerate() {
            if mask & (1u64 << other) == 0 {
                debug_assert!(
                    !rt.bufmgr.holds_page(page),
                    "node {other} holds page {page:?} but its holder bit is unset: \
                     the index fan-out would diverge from a broadcast"
                );
            }
        }
        let mut remaining = mask;
        let mut pending = mask & !(1u64 << committer);
        while pending != 0 {
            let other = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            self.nodes[other].bufmgr.invalidate_page(page);
            // Lazy pruning: the bit stays only while something invalidation
            // could still reach remains (e.g. an NVEM entry spared because
            // of an in-flight write-back).
            if !self.nodes[other].bufmgr.holds_page(page) {
                remaining &= !(1u64 << other);
            }
        }
        if remaining != mask {
            self.holders.insert(page, remaining);
        }
    }

    /// On-request validation check for a reference to `page` on `node`,
    /// *before* the buffer lookup.  When the node's buffered copy is stale
    /// (its stamp is behind the global version), the copy is discarded —
    /// the lookup that follows will miss and re-fetch — and the validation
    /// message round trip to charge is returned.
    pub(super) fn validate_reference(&mut self, node: usize, page: PageId) -> Option<f64> {
        if self.config.coherence.protocol != CoherenceProtocol::OnRequestValidate
            || !self.coherence_active()
        {
            return None;
        }
        let global = self.page_versions.get(&page).copied().unwrap_or(0);
        if global == 0 {
            return None; // never updated by anyone: every copy is current
        }
        let bufmgr = &self.nodes[node].bufmgr;
        if !bufmgr.mm_contains(page) && !bufmgr.nvem_contains(page) {
            return None; // no copy: a plain miss, nothing to validate
        }
        let stamp = self.node_versions[node].get(&page).copied().unwrap_or(0);
        if stamp >= global {
            return None; // current copy: the check piggybacks on the lock message
        }
        self.nodes[node].bufmgr.discard_stale_copy(page);
        let round_trip = 2.0 * self.config.coherence.transfer_msg_ms;
        self.coherence_stats.stale_validations += 1;
        self.coherence_stats.validation_delay_ms += round_trip;
        Some(round_trip)
    }

    /// Stamps `node`'s freshly fetched copy of `page` with the current
    /// global version (on-request validation only; pages nobody ever
    /// updated stay unstamped — absent means version 0, matching the
    /// absent global entry).
    pub(super) fn stamp_fetch(&mut self, node: usize, page: PageId) {
        if self.config.coherence.protocol != CoherenceProtocol::OnRequestValidate {
            return;
        }
        let global = self.page_versions.get(&page).copied().unwrap_or(0);
        if global > 0 {
            self.node_versions[node].insert(page, global);
        }
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
    /// validation additionally stamped with the current global version).
    /// Returns `None` when no such node exists — the miss then falls back
    /// to its disk re-read.
    fn direct_transfer_donor(&self, requester: usize, page: PageId) -> Option<usize> {
        let validate = self.config.coherence.protocol == CoherenceProtocol::OnRequestValidate;
        let global = if validate {
            self.page_versions.get(&page).copied().unwrap_or(0)
        } else {
            0
        };
        let mut pending = self.holders.get(&page).copied().unwrap_or(0) & !(1u64 << requester);
        while pending != 0 {
            let node = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            if !self.nodes[node].bufmgr.has_current_copy(page) {
                continue;
            }
            if validate && global > 0 {
                let stamp = self.node_versions[node].get(&page).copied().unwrap_or(0);
                if stamp < global {
                    continue;
                }
            }
            return Some(node);
        }
        None
    }
}
