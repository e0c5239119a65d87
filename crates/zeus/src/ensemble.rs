//! The consensus ensemble: leader and followers with quorum commit.
//!
//! "Zeus ... runs a consensus protocol among servers distributed across
//! multiple regions for resilience. If the leader fails, a follower is
//! converted into a new leader" (§3.4). [`EnsembleActor`] implements a
//! ZAB-flavoured protocol:
//!
//! * The leader assigns `(epoch, counter)` zxids to proposals, replicates
//!   them to followers, and commits once a majority (counting itself) has
//!   acknowledged.
//! * Committed writes are pushed to observers in zxid order — the first
//!   level of the paper's leader → observer → proxy distribution tree.
//! * Followers monitor leader heartbeats; on silence, a follower starts an
//!   election for the next epoch. Votes are granted to candidates whose log
//!   is at least as advanced, and a candidate with a majority becomes the
//!   new leader.
//! * Late or restarted replicas (and observers) catch up by sending
//!   `ObserverSync { last_zxid }`; the leader replies with the missing
//!   committed writes, in order.

use std::collections::{BTreeMap, HashSet};

use rand::Rng;
use simnet::ods;
use simnet::{Actor, Ctx, Message, NodeId, SimDuration, TraceCtx};

use crate::metrics::TRUNCATED_UNCOMMITTED;
use crate::metrics::{hops, APPEND_RETRANSMITS, COMMITS, DROPPED_PROPOSALS, LEADER_ELECTIONS};
use crate::metrics::{LEADER_STEPDOWNS, REPROPOSED_ON_ELECTION, SYNC_REDIRECTS};
use crate::store::ConfigStore;
use crate::types::{adaptive_batch_size, batch_traces, batch_wire_size, Write, ZeusMsg, Zxid};
use crate::types::{ELECTION_TIMEOUT, HEARTBEAT, LOG_CAP, MAX_BATCH_WRITES, MIN_LOSS_SAMPLES};

/// Timer tag for the leader heartbeat. Election timers use a per-node
/// generation counter (1, 2, 3, ...) as their tag instead of a fixed value:
/// timers cannot be cancelled, so bumping the generation is how a node
/// retires its election chain when it becomes leader (and how a deposed
/// leader starts a fresh chain without racing a stale one).
const TIMER_HEARTBEAT: u64 = 0;

/// Per-follower transmission counters feeding the loss estimate.
///
/// `sends` counts every (follower, write) transmission — first appends
/// and repeats alike. `resends` counts only *second-and-later*
/// retransmissions of a write: a write's first retransmission is as
/// often ack round-trip lag as loss (a burst proposed just before a
/// heartbeat tick is re-sent once even on a perfect network), so it is
/// deliberately not counted as loss evidence. `retx_head` is the highest
/// zxid ever retransmitted toward the follower — a write at or below it
/// that shows up missing again has provably been retransmitted before.
#[derive(Debug, Clone, Copy, Default)]
struct LinkStats {
    sends: u64,
    resends: u64,
    retx_head: Zxid,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Role {
    Leader,
    Follower,
    Candidate,
}

/// One member of the Zeus ensemble (leader or follower, depending on
/// elections).
pub struct EnsembleActor {
    peers: Vec<NodeId>,
    observers: Vec<NodeId>,
    role: Role,
    epoch: u32,
    /// Highest epoch this node has voted in (vote-once-per-epoch guard).
    promised_epoch: u32,
    current_leader: Option<NodeId>,
    /// Proposals received (leader: all proposed; follower: all appended).
    log: BTreeMap<Zxid, Write>,
    committed: Zxid,
    store: ConfigStore,
    next_counter: u64,
    /// Leader-side per-follower cumulative ack cursors: the highest zxid
    /// each peer has confirmed holding as a gap-free prefix of its epoch's
    /// log (via [`ZeusMsg::AckUpTo`]). Commit counting and targeted
    /// retransmission both read this — a write at or below a follower's
    /// cursor is acked and is never re-sent to that follower.
    peer_acked: BTreeMap<NodeId, Zxid>,
    /// Leader-side per-follower link statistics backing the adaptive
    /// retransmission chunk size. Kept across elections: loss is a
    /// property of the network path, not of the epoch, and a re-elected
    /// leader should start from warm estimates rather than re-learn a
    /// lossy link.
    peer_link: BTreeMap<NodeId, LinkStats>,
    /// Follower-side cumulative ack position: the longest gap-free prefix
    /// `(epoch, 1..=counter)` of the current epoch's appends held in the
    /// log. Unlike `contig` it resets at every epoch boundary (a new
    /// leader's log starts at counter 1 by construction), which is what
    /// lets acks keep flowing right after an election, before a sync
    /// reply walks `contig` across the boundary.
    ack_upto: Zxid,
    votes: HashSet<NodeId>,
    heard_from_leader: bool,
    /// Tag of the live election-timer chain; older tags are stale chains.
    election_gen: u64,
    /// Contiguity cursor: the highest zxid up to which this node provably
    /// holds *every* entry of the leader's history. Unlike
    /// `store.last_applied()`, which advances past holes left by dropped
    /// `Append`s, this only moves through gap-free prefixes — so gap
    /// detection and election comparisons stay sound when a single message
    /// in the middle of the stream is lost.
    contig: Zxid,
}

impl EnsembleActor {
    /// Creates an ensemble member. `initial_leader` bootstraps epoch 1
    /// without an election (as when the ensemble is first deployed).
    pub fn new(
        peers: Vec<NodeId>,
        observers: Vec<NodeId>,
        me: NodeId,
        initial_leader: NodeId,
    ) -> EnsembleActor {
        let is_leader = me == initial_leader;
        EnsembleActor {
            store: ConfigStore::new(LOG_CAP),
            peers,
            observers,
            role: if is_leader {
                Role::Leader
            } else {
                Role::Follower
            },
            epoch: 1,
            promised_epoch: 1,
            current_leader: Some(initial_leader),
            log: BTreeMap::new(),
            committed: Zxid::ZERO,
            next_counter: 0,
            peer_acked: BTreeMap::new(),
            peer_link: BTreeMap::new(),
            ack_upto: Zxid::ZERO,
            votes: HashSet::new(),
            heard_from_leader: true,
            election_gen: 0,
            contig: Zxid::ZERO,
        }
    }

    /// Current role name, for assertions in tests and experiments.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Highest committed zxid.
    pub fn committed(&self) -> Zxid {
        self.committed
    }

    /// This node's view of the current leader.
    pub fn known_leader(&self) -> Option<NodeId> {
        self.current_leader
    }

    /// Read access to the applied store.
    pub fn store(&self) -> &ConfigStore {
        &self.store
    }

    /// Current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The contiguity cursor (see the field docs). Exposed for tests and
    /// chaos diagnostics.
    pub fn contiguous(&self) -> Zxid {
        self.contig
    }

    /// Whether an entry for `path` sits in the consensus log (appended or
    /// re-proposed, possibly not yet applied). Used by chaos invariants: a
    /// freshly elected leader holds re-proposed writes here until the
    /// quorum re-acknowledges them.
    pub fn pending_for_path(&self, path: &str) -> bool {
        self.log.values().any(|w| w.path == path)
    }

    /// The zxids currently held in the replication log. Exposed for tests
    /// that audit the contiguity cursor against what is actually held: a
    /// partially applied batch frame would leave a hole below the cursor.
    pub fn logged_zxids(&self) -> Vec<Zxid> {
        self.log.keys().copied().collect()
    }

    fn quorum(&self) -> usize {
        self.peers.len() / 2 + 1
    }

    /// Advances and returns the follower-side cumulative ack position: the
    /// longest gap-free `(epoch, 1..=counter)` prefix of `epoch`'s appends
    /// held in the log. A leader's first proposal of an epoch is always
    /// counter 1 (`become_leader` resets the counter), so the prefix walk
    /// can start from zero at every epoch change.
    fn ack_position(&mut self, epoch: u32) -> Zxid {
        if self.ack_upto.epoch != epoch {
            self.ack_upto = Zxid { epoch, counter: 0 };
        }
        loop {
            let next = Zxid {
                epoch,
                counter: self.ack_upto.counter + 1,
            };
            if self.log.contains_key(&next) {
                self.ack_upto = next;
            } else {
                break;
            }
        }
        self.ack_upto
    }

    /// Leader-side support count for `zxid`: self plus every follower whose
    /// cumulative ack covers it. Cursors are per-epoch (a follower acks the
    /// gap-free prefix of the *current* epoch's appends), so only same-epoch
    /// acks count — which is exactly right: every uncommitted log entry is
    /// a current-epoch proposal (`become_leader` re-proposes the inherited
    /// tail under its own epoch).
    fn support_for(&self, zxid: Zxid) -> usize {
        1 + self
            .peer_acked
            .values()
            .filter(|a| a.epoch == zxid.epoch && a.counter >= zxid.counter)
            .count()
    }

    /// Measured one-way frame-loss rate toward follower `f`, from the
    /// counted repeat rate `resends / sends`. Two inversions sit between
    /// them. A write needs a retransmission when *either* its append or
    /// its ack was lost, so with one-way loss `p` the round-trip loss is
    /// `q = 1 - (1-p)²`; and because a write's first retransmission is not
    /// counted (see [`LinkStats`]), the counted repeats per write converge
    /// to `q²/(1-q)` against `1/(1-q)` transmissions — a repeat rate of
    /// `q²`. So `q = √rate` and `p = 1 - √(1-q)`. `None` until
    /// [`MIN_LOSS_SAMPLES`] transmissions have been observed.
    fn loss_estimate(&self, f: NodeId) -> Option<f64> {
        let link = self.peer_link.get(&f).copied().unwrap_or_default();
        if link.sends < MIN_LOSS_SAMPLES {
            return None;
        }
        let repeat_rate = (link.resends as f64 / link.sends as f64).min(1.0);
        let roundtrip = repeat_rate.sqrt();
        Some(1.0 - (1.0 - roundtrip).sqrt())
    }

    /// The retransmission chunk size currently in effect toward follower
    /// `f` (exposed for tests and loss-sweep diagnostics): adaptive once
    /// the link has a trusted loss estimate, the fixed
    /// [`MAX_BATCH_WRITES`] tuning until then.
    pub fn retransmit_chunk_for(&self, f: NodeId) -> usize {
        match self.loss_estimate(f) {
            Some(p) => adaptive_batch_size(p),
            None => MAX_BATCH_WRITES,
        }
    }

    /// Walks the contiguity cursor forward through gap-free same-epoch
    /// successors present in the log. The cursor never jumps epochs on its
    /// own: locally there is no way to tell how much of the previous
    /// epoch's tail we missed, so epoch boundaries are only crossed by a
    /// leader-asserted `SyncReply` (the ZAB NEWLEADER-sync analogue) or by
    /// becoming the leader ourselves.
    fn extend_contig(&mut self) {
        loop {
            let next = if self.contig == Zxid::ZERO {
                Zxid {
                    epoch: 1,
                    counter: 1,
                }
            } else {
                self.contig.next()
            };
            if self.log.contains_key(&next) {
                self.contig = next;
            } else {
                return;
            }
        }
    }

    /// The election position: the highest zxid through which this node's
    /// history is provably gap-free. Elections must compare gap-free
    /// prefixes of full logs (not applied prefixes, and not raw log tails):
    /// a follower that appended a quorum-committed entry but has not yet
    /// seen the commit must still outrank peers that never saw the entry —
    /// but a raw log tail would let a node with a *hole* below the tail
    /// outrank a peer that actually holds the acknowledged write.
    fn election_position(&self) -> Zxid {
        self.contig
    }

    /// The catch-up request: sync from the highest zxid through which this
    /// node has logged *and applied* everything. `contig` alone may sit on
    /// appended entries that were never committed here, and the reply's
    /// `SyncReply { upto }` fast-forwards the store past what it asked
    /// for — so a request from `contig` would skip those entries for good.
    fn sync_request(&self) -> ZeusMsg {
        ZeusMsg::ObserverSync {
            last_zxid: self.contig.min(self.committed),
        }
    }

    /// Heard from a leader of `leader_epoch`: drop uncommitted log entries
    /// appended under earlier epochs. The new leader re-proposes its own
    /// uncommitted suffix under its epoch, so any such entry is either
    /// arriving again with a new zxid or was abandoned by the election;
    /// keeping it would let a later `CommitUpTo` range-apply a write that
    /// no quorum ever acknowledged. Keyed off the leader's epoch rather
    /// than our own so a candidate that bumped its epoch and then lost the
    /// election still truncates its stale suffix.
    fn sync_epoch(&mut self, ctx: &mut Ctx<'_>, leader_epoch: u32) {
        self.epoch = self.epoch.max(leader_epoch);
        let committed = self.committed;
        let has_stale = self
            .log
            .range((
                std::ops::Bound::Excluded(committed),
                std::ops::Bound::Unbounded,
            ))
            .next()
            .is_some_and(|(z, _)| z.epoch < leader_epoch);
        if !has_stale {
            return;
        }
        let before = self.log.len();
        self.log
            .retain(|z, _| *z <= committed || z.epoch >= leader_epoch);
        let dropped = before - self.log.len();
        if dropped > 0 {
            ctx.metrics().incr(TRUNCATED_UNCOMMITTED, dropped as u64);
            // The truncated entries no longer back the contiguity cursor;
            // leaving it past them would let this node overclaim abandoned
            // history in elections (and in sync replies, as a leader).
            self.contig = self.contig.min(committed);
        }
    }

    /// Starts a fresh election-timer chain, retiring any previous one.
    fn arm_election(&mut self, ctx: &mut Ctx<'_>) {
        self.election_gen += 1;
        let jitter = ctx.rng().gen_range(0..=ELECTION_TIMEOUT.as_micros());
        ctx.set_timer(
            ELECTION_TIMEOUT + SimDuration::from_micros(jitter),
            self.election_gen,
        );
    }

    /// Demotion on hearing from a leader. A node that *was* the leader has
    /// no election chain running (it retired it on winning), so it must
    /// start one or it could never depose a failed successor.
    fn step_down(&mut self, ctx: &mut Ctx<'_>) {
        let was_leader = self.role == Role::Leader;
        self.role = Role::Follower;
        // Ack cursors are leader-side state; a deposed leader's copy is
        // stale the moment the new epoch's proposals start flowing.
        self.peer_acked.clear();
        if was_leader {
            self.arm_election(ctx);
        }
    }

    fn broadcast(&self, ctx: &mut Ctx<'_>, msg: &ZeusMsg, size: u64) {
        for &p in &self.peers {
            if p != ctx.node() {
                ctx.send_value(p, size, msg.clone());
            }
        }
    }

    fn become_leader(&mut self, ctx: &mut Ctx<'_>) {
        self.role = Role::Leader;
        self.current_leader = Some(ctx.node());
        self.next_counter = 0;
        self.peer_acked.clear();
        // Retire the election chain; the heartbeat chain takes over.
        self.election_gen += 1;
        ctx.metrics().incr(LEADER_ELECTIONS, 1);
        let msg = ZeusMsg::NewLeader {
            epoch: self.epoch,
            leader: ctx.node(),
        };
        self.broadcast(ctx, &msg, 64);
        for &o in &self.observers.clone() {
            ctx.send_value(o, 64, msg.clone());
        }
        self.send_heartbeat(ctx);
        ctx.set_timer(HEARTBEAT, TIMER_HEARTBEAT);
        // Reconciliation: entries this node appended but never saw commit
        // may or may not have reached a quorum under the old leader. Either
        // way the only safe path is to re-propose them under the new epoch;
        // followers truncate their own uncommitted old-epoch suffixes when
        // they observe the epoch change, so no entry is applied twice.
        let committed = self.committed;
        let uncommitted: Vec<Write> = self
            .log
            .range((
                std::ops::Bound::Excluded(committed),
                std::ops::Bound::Unbounded,
            ))
            .map(|(_, w)| w.clone())
            .collect();
        self.log.retain(|z, _| *z <= committed);
        // The winner's history is the ensemble's history by definition, so
        // `propose` below (and for every later client write) re-asserts the
        // contiguity cursor under the new epoch. Deliberately NOT widened to
        // `store.last_applied()` here: the store may have applied past a
        // hole while we were a follower, and the cursor must stay gap-free.
        if !uncommitted.is_empty() {
            ctx.metrics()
                .incr(REPROPOSED_ON_ELECTION, uncommitted.len() as u64);
        }
        for w in uncommitted {
            if let Some(t) = w.trace {
                ctx.trace_annot(t, hops::REPROPOSE, vec![("epoch", self.epoch.to_string())]);
            }
            self.propose(ctx, w.path, w.data, w.origin, w.trace);
        }
    }

    fn send_heartbeat(&self, ctx: &mut Ctx<'_>) {
        let msg = ZeusMsg::Heartbeat {
            epoch: self.epoch,
            committed: self.committed,
        };
        self.broadcast(ctx, &msg, 64);
        // Observers get the heartbeat too: push frames are all-or-nothing,
        // so a fully dropped push round is otherwise silent until the next
        // anti-entropy tick. The 64-byte commit head lets an observer spot
        // the hole within one heartbeat period and resync immediately.
        for &o in &self.observers {
            ctx.send_value(o, 64, msg.clone());
        }
    }

    /// Leader path: assign a zxid, append locally, replicate.
    fn propose(
        &mut self,
        ctx: &mut Ctx<'_>,
        path: String,
        data: bytes::Bytes,
        origin: simnet::SimTime,
        trace: Option<TraceCtx>,
    ) {
        self.next_counter += 1;
        let zxid = Zxid {
            epoch: self.epoch,
            counter: self.next_counter,
        };
        // Hang all downstream hops under the propose span. A re-proposal
        // after election lands on a different node, so the dedup key admits
        // it; a duplicate on the same leader keeps the original context.
        let trace = trace.map(|t| {
            ctx.trace_hop(t, hops::LEADER_PROPOSE, vec![("zxid", zxid.to_string())])
                .unwrap_or(t)
        });
        let write = Write {
            zxid,
            path,
            data,
            origin,
            trace,
        };
        self.log.insert(write.zxid, write.clone());
        // The leader authors history in order; its own proposals are
        // contiguous by construction.
        self.contig = write.zxid;
        let size = write.wire_size();
        // First transmission toward every follower: feeds the denominator
        // of the per-link loss estimate.
        let me = ctx.node();
        for &p in &self.peers {
            if p != me {
                self.peer_link.entry(p).or_default().sends += 1;
            }
        }
        self.broadcast(ctx, &ZeusMsg::Append { write }, size);
        // A single-node ensemble commits immediately.
        self.try_commit(ctx);
    }

    fn try_commit(&mut self, ctx: &mut Ctx<'_>) {
        let quorum = self.quorum();
        let mut new_commit = self.committed;
        // Commits are in-order: advance through consecutive proposals whose
        // cumulative-ack support reaches a quorum, stop at the first that
        // lacks it. Cumulative cursors make the per-proposal check O(peers).
        let candidates: Vec<Zxid> = self
            .log
            .range((
                std::ops::Bound::Excluded(self.committed),
                std::ops::Bound::Unbounded,
            ))
            .map(|(&z, _)| z)
            .collect();
        for zxid in candidates {
            if self.support_for(zxid) >= quorum {
                new_commit = zxid;
            } else {
                break;
            }
        }
        if new_commit > self.committed {
            self.committed = new_commit;
            // Apply in order, then push to each observer as ONE batched
            // frame. A quorum ack that commits several proposals at once
            // (the norm when loss stalled the in-order commit point) used
            // to fan out one message per write per observer.
            let to_apply: Vec<Write> = self
                .log
                .range(..=new_commit)
                .filter(|(z, _)| **z > self.store.last_applied())
                .map(|(_, w)| w.clone())
                .collect();
            let mut batch: Vec<Write> = Vec::with_capacity(to_apply.len());
            for mut w in to_apply {
                // Re-root the write's context at the commit span, so the
                // observer/proxy fan-out hangs off the quorum decision.
                if let Some(t) = w.trace {
                    let acks = self.support_for(w.zxid);
                    if let Some(c) = ctx.trace_hop(
                        t,
                        hops::QUORUM_COMMIT,
                        vec![("zxid", w.zxid.to_string()), ("acks", acks.to_string())],
                    ) {
                        w.trace = Some(c);
                    }
                }
                self.store.apply(w.clone());
                batch.push(w);
            }
            if !batch.is_empty() {
                for &o in &self.observers.clone() {
                    for chunk in batch.chunks(MAX_BATCH_WRITES) {
                        ctx.send_traced_batch(
                            o,
                            batch_wire_size(chunk),
                            Box::new(ZeusMsg::ObserverUpdateBatch {
                                writes: chunk.to_vec(),
                                upto: new_commit,
                            }),
                            batch_traces(chunk),
                        );
                    }
                }
            }
            self.broadcast(ctx, &ZeusMsg::CommitUpTo { zxid: new_commit }, 64);
            // Counts committed WRITES, not commit-point advances: a quorum
            // ack that lands several proposals at once is that many commits.
            ctx.metrics().incr(COMMITS, batch.len() as u64);
            ctx.ods_counter(ods::tiers::ZEUS, ods::series::COMMITS, batch.len() as f64);
        }
    }

    /// Targeted retransmission: for each follower, send exactly the pending
    /// writes its cumulative ack cursor does not cover, as all-or-nothing
    /// `AppendBatch` frames chunked by the link's measured loss rate (see
    /// [`adaptive_batch_size`]) — big frames on clean links, small blast
    /// radii on lossy ones. Followers that already acked the whole tail get
    /// nothing. `APPEND_RETRANSMITS` counts the actually retransmitted
    /// (follower, write) pairs.
    fn retransmit_targeted(&mut self, ctx: &mut Ctx<'_>, pending: &[Write]) {
        let me = ctx.node();
        for &f in &self.peers.clone() {
            if f == me {
                continue;
            }
            let acked = self.peer_acked.get(&f).copied().unwrap_or(Zxid::ZERO);
            let floor = self.committed.max(acked);
            let missing: Vec<Write> = pending.iter().filter(|w| w.zxid > floor).cloned().collect();
            if missing.is_empty() {
                continue;
            }
            ctx.metrics().incr(APPEND_RETRANSMITS, missing.len() as u64);
            let link = self.peer_link.entry(f).or_default();
            link.sends += missing.len() as u64;
            // Only second-and-later retransmissions count as loss
            // evidence: anything at or below the retransmit head has been
            // re-sent before and is still missing.
            link.resends += missing.iter().filter(|w| w.zxid <= link.retx_head).count() as u64;
            if let Some(last) = missing.last() {
                link.retx_head = link.retx_head.max(last.zxid);
            }
            let chunk_size = self.retransmit_chunk_for(f);
            for w in &missing {
                if let Some(t) = w.trace {
                    // Every retransmission is annotated (never deduped) so
                    // the waterfall shows per-follower retry counts.
                    ctx.trace_annot(
                        t,
                        hops::RETRANSMIT,
                        vec![("zxid", w.zxid.to_string()), ("to", f.0.to_string())],
                    );
                }
            }
            for chunk in missing.chunks(chunk_size) {
                ctx.send_traced_batch(
                    f,
                    batch_wire_size(chunk),
                    Box::new(ZeusMsg::AppendBatch {
                        writes: chunk.to_vec(),
                    }),
                    batch_traces(chunk),
                );
            }
        }
    }

    /// Follower path: apply commits up to `zxid` from the in-order log.
    fn apply_commits(&mut self, upto: Zxid) {
        if upto <= self.committed {
            return;
        }
        let to_apply: Vec<Write> = self
            .log
            .range(..=upto)
            .filter(|(z, _)| **z > self.store.last_applied())
            .map(|(_, w)| w.clone())
            .collect();
        for w in to_apply {
            self.store.apply(w);
        }
        self.committed = upto;
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: ZeusMsg) {
        match msg {
            ZeusMsg::Propose {
                path,
                data,
                origin,
                trace,
            } => {
                if self.role == Role::Leader {
                    self.propose(ctx, path, data, origin, trace);
                } else if let Some(leader) = self.current_leader {
                    // Forward to the leader.
                    let size = (path.len() + data.len() + 64) as u64;
                    ctx.send_traced(
                        leader,
                        size,
                        Box::new(ZeusMsg::Propose {
                            path,
                            data,
                            origin,
                            trace,
                        }),
                        trace,
                    );
                } else {
                    ctx.metrics().incr(DROPPED_PROPOSALS, 1);
                    ctx.ods_counter(ods::tiers::ZEUS, ods::series::ERRORS, 1.0);
                }
            }
            ZeusMsg::Append { write }
                if self.role != Role::Leader && write.zxid.epoch >= self.epoch => {
                    let epoch = write.zxid.epoch;
                    self.sync_epoch(ctx, epoch);
                    self.heard_from_leader = true;
                    if let Some(t) = write.trace {
                        // Deduplicated per node: a retransmitted append does
                        // not double-count the hop.
                        ctx.trace_hop(
                            t,
                            hops::FOLLOWER_APPEND,
                            vec![("zxid", write.zxid.to_string())],
                        );
                    }
                    self.log.insert(write.zxid, write.clone());
                    self.extend_contig();
                    // Cumulative ack: one frame covers everything held so
                    // far, and re-acking a duplicate delivery is free.
                    let upto = self.ack_position(epoch);
                    ctx.send_value(from, 64, ZeusMsg::AckUpTo { upto });
                }
            ZeusMsg::AppendBatch { writes }
                if self.role != Role::Leader
                    && writes.first().is_some_and(|w| w.zxid.epoch >= self.epoch) => {
                    // All-or-nothing retransmission frame: by the time this
                    // arm runs, the whole batch was delivered (drops happen
                    // at the network layer, frame-granular). Apply every
                    // write, then ack once.
                    let epoch = writes[0].zxid.epoch;
                    self.sync_epoch(ctx, epoch);
                    self.heard_from_leader = true;
                    for write in writes {
                        if let Some(t) = write.trace {
                            ctx.trace_hop(
                                t,
                                hops::FOLLOWER_APPEND,
                                vec![("zxid", write.zxid.to_string())],
                            );
                        }
                        self.log.insert(write.zxid, write);
                    }
                    self.extend_contig();
                    let upto = self.ack_position(epoch);
                    ctx.send_value(from, 64, ZeusMsg::AckUpTo { upto });
                }
            ZeusMsg::AckUpTo { upto }
                if self.role == Role::Leader => {
                    let cur = self.peer_acked.entry(from).or_insert(Zxid::ZERO);
                    if upto > *cur {
                        *cur = upto;
                        self.try_commit(ctx);
                    }
                }
            ZeusMsg::CommitUpTo { zxid }
                if self.role != Role::Leader => {
                    self.heard_from_leader = true;
                    self.apply_commits(zxid);
                }
            ZeusMsg::Heartbeat { epoch, committed }
                if epoch >= self.epoch => {
                    self.sync_epoch(ctx, epoch);
                    if self.role != Role::Follower && from != ctx.node() {
                        self.step_down(ctx);
                    }
                    self.current_leader = Some(from);
                    self.heard_from_leader = true;
                    self.apply_commits(committed);
                    // Detect gaps: if the leader has committed past our
                    // gap-free prefix, request the missing range. Keyed off
                    // the contiguity cursor, NOT `store.last_applied()` —
                    // the store applies whatever the log holds and can
                    // advance past a hole, which would mask the missing
                    // write from a threshold comparison forever.
                    if committed > self.contig {
                        ctx.send_value(
                            from,
                            64,
                            self.sync_request(),
                        );
                    }
                }
            ZeusMsg::ElectMe { epoch, last_zxid }
                if epoch > self.promised_epoch => {
                    // The promise advances whether or not the vote is
                    // granted (as Raft updates currentTerm on any higher
                    // term). Without this, a replica that inflated its
                    // epoch through failed candidacies while partitioned
                    // can never rejoin: it ignores the incumbent's
                    // lower-epoch heartbeats forever. Adopting the promise
                    // — and stepping down if we lead — forces the next
                    // election to an epoch above the disruptor's, which
                    // the up-to-date majority wins, and the stray replica
                    // follows the new epoch home.
                    self.promised_epoch = epoch;
                    if last_zxid >= self.election_position() {
                        ctx.send_value(from, 64, ZeusMsg::Vote { epoch });
                    } else if self.role == Role::Leader {
                        ctx.metrics().incr(LEADER_STEPDOWNS, 1);
                        self.step_down(ctx);
                    }
                }
            ZeusMsg::Vote { epoch }
                if self.role == Role::Candidate && epoch == self.epoch => {
                    self.votes.insert(from);
                    if self.votes.len() >= self.quorum() {
                        self.become_leader(ctx);
                    }
                }
            ZeusMsg::NewLeader { epoch, leader }
                if epoch >= self.epoch && leader != ctx.node() => {
                    self.sync_epoch(ctx, epoch);
                    self.promised_epoch = self.promised_epoch.max(epoch);
                    self.step_down(ctx);
                    self.current_leader = Some(leader);
                    self.heard_from_leader = true;
                    // Catch up with the new leader from the gap-free prefix
                    // so the reply also repairs any holes behind our head.
                    ctx.send_value(
                        leader,
                        64,
                        self.sync_request(),
                    );
                }
            ZeusMsg::ObserverSync { last_zxid }
                if self.role == Role::Leader => {
                    let writes = match self.store.writes_after(last_zxid) {
                        Some(w) => w,
                        None => self.store.snapshot(),
                    };
                    // One atomic reply (ZooKeeper's DIFF/SNAP analogue):
                    // a stream of per-write messages could lose its middle
                    // to a drop window, leaving the receiver with a hole
                    // behind its cursor that no retry would ever cover.
                    //
                    // Assert completeness only up to our own gap-free
                    // prefix: a just-elected leader's `last_applied` can
                    // itself sit past a hole inherited from its follower
                    // days, and passing that on would corrupt the
                    // receiver's cursor with a hole nobody ever re-checks.
                    let size: u64 = writes.iter().map(Write::wire_size).sum::<u64>() + 64;
                    let upto = self.store.last_applied().min(self.contig);
                    ctx.send_value(from, size, ZeusMsg::SyncReply { writes, upto });
                }
            ZeusMsg::ObserverSync { .. } => {
                // We are not the leader. An observer syncing against us
                // has a stale leader pointer (its `NewLeader` was lost);
                // redirect it rather than silently dropping the request,
                // or it would anti-entropy into the void forever.
                if let Some(leader) = self.current_leader {
                    if leader != ctx.node() {
                        ctx.metrics().incr(SYNC_REDIRECTS, 1);
                        ctx.send_value(from, 64, ZeusMsg::NewLeader { epoch: self.epoch, leader });
                    }
                }
            }
            ZeusMsg::SyncReply { writes, upto }
                // Catch-up data from the leader: committed writes, possibly
                // repairing holes *behind* our applied head.
                if self.role != Role::Leader => {
                    for w in writes {
                        self.log.insert(w.zxid, w.clone());
                        self.store.absorb(w);
                    }
                    self.store.fast_forward(upto);
                    self.committed = self.committed.max(upto);
                    // The leader asserted completeness up to `upto`; this is
                    // the only place the cursor may cross an epoch boundary.
                    self.contig = self.contig.max(upto);
                    self.extend_contig();
                    // The sync may have filled holes below appends we
                    // already hold; re-ack so the leader's cursor (and the
                    // commit point) can advance past the repaired range.
                    let ack = self.ack_position(self.epoch);
                    if ack.counter > 0 {
                        ctx.send_value(from, 64, ZeusMsg::AckUpTo { upto: ack });
                    }
                }
            _ => {}
        }
    }
}

impl Actor for EnsembleActor {
    fn kind(&self) -> &'static str {
        "zeus.ensemble"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.role == Role::Leader {
            ctx.set_timer(HEARTBEAT, TIMER_HEARTBEAT);
        } else {
            self.arm_election(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        if let Ok(m) = msg.downcast::<ZeusMsg>() {
            self.handle(ctx, from, *m);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TIMER_HEARTBEAT {
            if self.role == Role::Leader {
                self.send_heartbeat(ctx);
                // Retransmit the uncommitted tail. Commits are strictly
                // in-order, so a single proposal whose appends (or acks)
                // were all lost would otherwise block every later commit
                // forever — ZAB gets this for free from FIFO TCP channels,
                // but this network drops individual messages. Re-appends
                // are idempotent and followers re-ack what they hold.
                let pending: Vec<Write> = self
                    .log
                    .range((
                        std::ops::Bound::Excluded(self.committed),
                        std::ops::Bound::Unbounded,
                    ))
                    .map(|(_, w)| w.clone())
                    .collect();
                if !pending.is_empty() {
                    self.retransmit_targeted(ctx, &pending);
                }
                ctx.set_timer(HEARTBEAT, TIMER_HEARTBEAT);
            }
            return;
        }
        // Election chain: only the live generation counts; stale chains
        // (from before a crash or a term as leader) die here.
        if tag != self.election_gen || self.role == Role::Leader {
            return;
        }
        if self.heard_from_leader {
            self.heard_from_leader = false;
        } else {
            // Leader is silent: start an election for the next epoch.
            self.role = Role::Candidate;
            self.epoch = self.promised_epoch + 1;
            self.promised_epoch = self.epoch;
            self.current_leader = None;
            self.votes.clear();
            self.votes.insert(ctx.node());
            let msg = ZeusMsg::ElectMe {
                epoch: self.epoch,
                last_zxid: self.election_position(),
            };
            self.broadcast(ctx, &msg, 64);
            if self.votes.len() >= self.quorum() {
                // Single-node ensemble.
                self.become_leader(ctx);
                return;
            }
        }
        let jitter = ctx.rng().gen_range(0..=ELECTION_TIMEOUT.as_micros());
        ctx.set_timer(
            ELECTION_TIMEOUT + SimDuration::from_micros(jitter),
            self.election_gen,
        );
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_>) {
        // Rejoin as a follower and catch up.
        self.role = Role::Follower;
        self.heard_from_leader = false;
        if let Some(leader) = self.current_leader {
            ctx.send_value(leader, 64, self.sync_request());
        }
        self.arm_election(ctx);
    }
}
