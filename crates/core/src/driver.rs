//! The sans-IO node driver: everything a host does around one node's
//! Figure-4 state machine, written once.
//!
//! [`CausalState`] holds the protocol's atomic steps. Every host — the
//! deterministic simulator, the threaded engine, the TCP poller — also
//! needs the orchestration around them: the one outstanding blocking
//! operation, the bounded write pipeline with its drain/slot gates and
//! adaptive batching, the failover layer's stamped-request table (NACK
//! redirect, timeout → suspect → migrate, jittered backoff, the retry
//! budget), heartbeats, protocol side traffic and the durability journal.
//! [`NodeDriver`] owns all of it and performs no I/O:
//! [`NodeDriver::submit`], [`NodeDriver::deliver`] and [`NodeDriver::tick`]
//! each return [`Effects`] — messages to send, at most one completion,
//! journal records the host must persist before any of those messages
//! leave, and the next time the host must call `tick`. A driver is a pure
//! function of its inputs, so a seed, a trace or a log replays it
//! identically on every host.

use std::sync::Arc;

use dsm_durable::WalRecord;
use memcore::{Location, MemoryError, NodeId, OwnerEpoch, PageId, Value, WriteId};

use crate::config::FailoverConfig;
use crate::fxmap::FastMap;
use crate::msg::Msg;
use crate::state::{CausalState, ReadStep, WriteDone, WriteStep};

/// An application operation, as a host submits it.
#[derive(Clone, Debug)]
pub enum NodeOp<V> {
    /// `r(x)`; may hit the cache.
    Read(Location),
    /// Discards any cached copy, then reads: forces owner communication.
    ReadFresh(Location),
    /// A blocking write: completes once the owner's `W_REPLY` is absorbed
    /// (at once for an owned page).
    Write(Location, Arc<V>),
    /// A write through the bounded pipeline: toward a remote owner it
    /// completes at issue. With a window of 0 it is [`NodeOp::Write`].
    WritePipelined(Location, Arc<V>),
    /// The raw non-blocking write: completes at issue with no window and
    /// no drain gates. It forfeits Definition 2 (the `nonblocking_limits`
    /// witness); hosts submit it only with the pipeline off.
    WriteNonblocking(Location, Arc<V>),
    /// The paper's `discard`: drops the cached copy.
    Discard(Location),
    /// Write barrier: completes once every pipelined write's reply has
    /// been absorbed into `VT_i`.
    Flush,
}

/// What a completed operation produced.
#[derive(Clone, Debug)]
pub enum Done<V> {
    /// A read returned this value, written by `wid`.
    Read {
        /// The value, shared with local memory.
        value: Arc<V>,
        /// The write it reads from.
        wid: WriteId,
    },
    /// A write completed (rejected only under an owner-favored policy).
    Wrote(WriteDone),
    /// A discard completed.
    Discarded,
    /// A flush completed: nothing is in flight.
    Flushed,
}

/// What one driver call asks its host to do.
#[derive(Debug)]
pub struct Effects<V> {
    /// Messages to send, in order.
    pub outgoing: Vec<(NodeId, Msg<V>)>,
    /// Present when the outstanding operation completed (or failed).
    pub done: Option<Result<Done<V>, MemoryError>>,
    /// Journal records to persist before any message leaves (empty
    /// unless the configuration is durable).
    pub wal: Vec<WalRecord<V>>,
    /// When the host must next call [`NodeDriver::tick`] (failover only).
    pub next_timer: Option<u64>,
}

impl<V> Effects<V> {
    fn empty() -> Self {
        Effects {
            outgoing: Vec::new(),
            done: None,
            wal: Vec::new(),
            next_timer: None,
        }
    }

    fn sent(outgoing: Vec<(NodeId, Msg<V>)>) -> Self {
        Effects {
            outgoing,
            ..Effects::empty()
        }
    }

    fn done(done: Done<V>) -> Self {
        Effects {
            done: Some(Ok(done)),
            ..Effects::empty()
        }
    }

    /// Folds `extra` in. A node completes at most one operation per
    /// event; enforced here.
    fn merge(&mut self, mut extra: Effects<V>) {
        self.outgoing.append(&mut extra.outgoing);
        if extra.done.is_some() {
            assert!(self.done.is_none(), "at most one completion per event");
            self.done = extra.done;
        }
    }
}

/// The one outstanding blocking operation.
#[derive(Clone, Debug)]
enum Pending<V> {
    Read { loc: Location },
    Write { value: Arc<V>, wid: WriteId },
}

/// Sender side of the bounded write pipeline.
///
/// Invariant: `in_flight == 0` iff `owner == None`, and `buffer` is empty
/// unless some write is on the wire (`in_flight > buffer.len()`). The
/// window points at one owner at a time; switching owners needs a full
/// drain, because the new owner's request would carry the old owner's
/// uncertified increments in its timestamp.
#[derive(Clone, Debug)]
struct Pipeline<V> {
    window: usize,
    batching: bool,
    /// Most parts one batch envelope carries: `clamp(window, 1, 8)`.
    run_cap: usize,
    owner: Option<NodeId>,
    /// Pipelined writes outstanding toward `owner`, sent or buffered.
    in_flight: usize,
    /// With batching, WRITE requests not yet on the wire.
    buffer: Vec<Msg<V>>,
}

/// What the pipeline requires before an operation may proceed.
enum Gate {
    Proceed,
    /// Wait until every in-flight write's reply is absorbed.
    Drain,
    /// Wait until the window has a free slot (same-owner pipelined write).
    Slot,
}

/// Failover runtime: the heartbeat schedule and the stamped requests in
/// flight. Present iff the state carries a [`FailoverConfig`].
#[derive(Clone, Debug)]
struct Failover<V> {
    config: FailoverConfig,
    /// The host's clock, refreshed on every call.
    now: u64,
    next_heartbeat: u64,
    inflight: Vec<Inflight<V>>,
}

/// One stamped request in flight toward an owner.
#[derive(Clone, Debug)]
struct Inflight<V> {
    /// Stamp of the current attempt (refreshed on every redispatch, so
    /// replies to abandoned attempts are recognizably stale).
    op: u64,
    page: PageId,
    /// The owner the current attempt went to.
    target: NodeId,
    /// The bare Figure-4 request, kept for re-sending.
    request: Msg<V>,
    /// When the current attempt is abandoned and its target suspected.
    deadline: u64,
    /// Attempts consumed so far (drives backoff and the retry budget).
    attempt: u32,
}

/// One attempt's patience before its target is suspected: the suspicion
/// budget plus the attempt's exponential backoff (deterministic jitter
/// from `salt`, so replays retry at identical times).
fn attempt_window(config: &FailoverConfig, attempt: u32, salt: u64) -> u64 {
    let base = config
        .heartbeat_interval
        .saturating_mul(u64::from(config.suspicion_threshold))
        .max(1);
    base + config.backoff(attempt, salt)
}

/// One node's protocol state plus all the orchestration its hosts share:
/// the outstanding operation, the write pipeline and its batching, the
/// failover layer's stamped retries and heartbeats, side traffic and the
/// journal. It performs no I/O; every call returns the [`Effects`] its
/// host carries out.
#[derive(Clone, Debug)]
pub struct NodeDriver<V> {
    state: CausalState<V>,
    pending: Option<Pending<V>>,
    /// An operation the pipeline gated; retried as pipelined replies
    /// drain. The node is blocked while this is set.
    deferred: Option<NodeOp<V>>,
    pipe: Pipeline<V>,
    /// Writes whose replies are absorbed rather than completing an
    /// operation: `true` for pipelined ones (they hold a window slot),
    /// `false` for raw non-blocking ones.
    absorbing: FastMap<WriteId, bool>,
    fo: Option<Failover<V>>,
    drains: u64,
}

impl<V: Value> NodeDriver<V> {
    /// Wraps a node's protocol state.
    #[must_use]
    pub fn new(state: CausalState<V>) -> Self {
        let window = state.config().pipeline_window() as usize;
        let failover = state.failover_config();
        let pipe = Pipeline {
            window,
            // Under failover every pipelined WRITE travels in its own
            // stamped envelope, so NACKs and retries target one attempt.
            batching: state.config().batching() && failover.is_none(),
            run_cap: window.clamp(1, 8),
            owner: None,
            in_flight: 0,
            buffer: Vec::new(),
        };
        let fo = failover.map(|config| Failover {
            config,
            now: 0,
            next_heartbeat: config.heartbeat_interval.max(1),
            inflight: Vec::new(),
        });
        NodeDriver {
            state,
            pending: None,
            deferred: None,
            pipe,
            absorbing: FastMap::default(),
            fo,
            drains: 0,
        }
    }

    /// The wrapped protocol state.
    #[must_use]
    pub fn state(&self) -> &CausalState<V> {
        &self.state
    }

    /// The host time of the latest call (0 without failover, which keeps
    /// no clock).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.fo.as_ref().map_or(0, |fo| fo.now)
    }

    /// Pipelined writes whose replies are outstanding.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pipe.in_flight
    }

    /// How many operations had to wait for the pipeline to drain.
    #[must_use]
    pub fn drains(&self) -> u64 {
        self.drains
    }

    /// Drains journal records queued outside any driver call (the boot
    /// watermark a fresh or recovered state journals at construction).
    pub fn take_journal(&mut self) -> Vec<WalRecord<V>> {
        self.state.take_journal()
    }

    /// The earliest time the driver needs [`NodeDriver::tick`]: the next
    /// heartbeat or request deadline. `None` without failover.
    #[must_use]
    pub fn next_timer(&self) -> Option<u64> {
        let fo = self.fo.as_ref()?;
        Some(
            fo.inflight
                .iter()
                .map(|e| e.deadline)
                .fold(fo.next_heartbeat, u64::min),
        )
    }

    /// Submits an application operation at host time `now`.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already outstanding.
    pub fn submit(&mut self, now: u64, op: NodeOp<V>) -> Effects<V> {
        assert!(
            self.pending.is_none() && self.deferred.is_none(),
            "one outstanding op per node"
        );
        if let Some(fo) = &mut self.fo {
            fo.now = now;
        }
        let gate = self.gate(&op);
        if matches!(gate, Gate::Drain) {
            self.drains += 1;
        }
        let fx = self.apply(gate, op);
        self.finish(fx)
    }

    /// The owner-local write as one atomic step, concurrent with whatever
    /// operation is outstanding: `None` (nothing done) unless this node
    /// owns `loc`'s page and the pipeline is idle, since a local write
    /// must not stamp its page with in-flight increments.
    pub fn write_local(&mut self, loc: Location, value: Arc<V>) -> Option<Effects<V>> {
        if self.pipe.in_flight > 0 || self.owner_now(loc) != self.state.id() {
            return None;
        }
        let fx = self.blocking_write(loc, value);
        Some(self.finish(fx))
    }

    /// Delivers a protocol message from `from` at host time `now`.
    pub fn deliver(&mut self, now: u64, from: NodeId, msg: Msg<V>) -> Effects<V> {
        if let Some(fo) = &mut self.fo {
            fo.now = now;
            // Any inbound message is evidence of life, not just heartbeats.
            self.state.record_alive(from, now);
        }
        let fx = self.on_message(from, msg);
        self.finish(fx)
    }

    /// Advances the driver's clock to `now`: sends heartbeats when due,
    /// suspects silent peers, and retries (or, past the retry budget,
    /// fails) requests whose attempt window expired.
    pub fn tick(&mut self, now: u64) -> Effects<V> {
        let Some(fo) = &mut self.fo else {
            return Effects::empty();
        };
        fo.now = now;
        let mut fx = Effects::empty();
        if fo.next_heartbeat <= now {
            fo.next_heartbeat = now + fo.config.heartbeat_interval.max(1);
            if let Some(hb) = self.state.heartbeat_msg() {
                // All peers under all-pairs probing; this node's ring
                // successors under a scoped heartbeat fanout.
                for peer in self.state.heartbeat_targets() {
                    fx.outgoing.push((peer, hb.clone()));
                }
            }
            for suspect in self.state.check_suspicions(now) {
                fx.merge(self.declare_suspect(suspect));
            }
        }
        fx.merge(self.expire(now));
        self.finish(fx)
    }

    /// Forgets everything outstanding. For a host whose transport shut
    /// down, which is terminal: no reply will ever arrive, and leaving the
    /// registrations would wedge a later flush.
    pub fn abandon(&mut self) {
        self.pending = None;
        self.deferred = None;
        self.absorbing.clear();
        self.pipe = Pipeline {
            owner: None,
            in_flight: 0,
            buffer: Vec::new(),
            ..self.pipe
        };
        if let Some(fo) = &mut self.fo {
            fo.inflight.clear();
        }
    }

    /// Appends side traffic and the journal, and reports the next timer.
    fn finish(&mut self, mut fx: Effects<V>) -> Effects<V> {
        // Hot-standby shadows (failover) and `[INTEREST]` drops queued by
        // cache eviction (interest scoping).
        if self.fo.is_some() {
            fx.outgoing.extend(self.state.take_replications());
        }
        if self.state.config().interest_scoping() {
            fx.outgoing.extend(self.state.take_interest_msgs());
        }
        fx.wal = self.state.take_journal();
        fx.next_timer = self.next_timer();
        fx
    }

    /// The node currently serving `loc`: the static owner until failover
    /// migrates the page to a higher epoch.
    fn owner_now(&self, loc: Location) -> NodeId {
        self.state
            .current_owner(loc.page(self.state.config().page_size()))
    }

    /// The pipeline's drain/slot rules. Operations that could export or
    /// observe in-flight increments — an owner-local write, a write to a
    /// *different* owner, a read that misses toward the pipeline's owner
    /// (read-your-own-write), a flush — need a full drain; a same-owner
    /// pipelined write needs a free slot. A same-owner blocking write and
    /// everything else overlap freely (per-link FIFO orders them).
    fn gate(&self, op: &NodeOp<V>) -> Gate {
        let p = &self.pipe;
        if p.in_flight == 0 {
            return Gate::Proceed;
        }
        let me = self.state.id();
        match op {
            NodeOp::Read(loc) | NodeOp::ReadFresh(loc) => {
                let misses = matches!(op, NodeOp::ReadFresh(_)) || !self.state.has_valid_copy(*loc);
                if misses && p.owner == Some(self.owner_now(*loc)) {
                    Gate::Drain
                } else {
                    Gate::Proceed
                }
            }
            NodeOp::Write(loc, _) | NodeOp::WritePipelined(loc, _) => {
                let owner = self.owner_now(*loc);
                if owner == me || p.owner != Some(owner) {
                    Gate::Drain
                } else if matches!(op, NodeOp::WritePipelined(..)) && p.in_flight >= p.window {
                    Gate::Slot
                } else {
                    Gate::Proceed
                }
            }
            NodeOp::Flush => Gate::Drain,
            NodeOp::WriteNonblocking(..) | NodeOp::Discard(_) => Gate::Proceed,
        }
    }

    /// Performs `op`, or stashes it (with the buffer sealed, so the
    /// drain can make progress) when the pipeline gates it.
    fn apply(&mut self, gate: Gate, op: NodeOp<V>) -> Effects<V> {
        match gate {
            Gate::Proceed => self.perform(op),
            Gate::Drain | Gate::Slot => {
                let outgoing = self.seal_run();
                self.deferred = Some(op);
                Effects::sent(outgoing)
            }
        }
    }

    fn perform(&mut self, op: NodeOp<V>) -> Effects<V> {
        match op {
            NodeOp::Read(loc) => self.read(loc),
            NodeOp::ReadFresh(loc) => {
                self.state.discard(loc);
                self.read(loc)
            }
            NodeOp::Write(loc, value) => {
                // Same-owner write behind the pipeline: nothing buffered
                // may overtake it.
                let mut fx = Effects::sent(self.seal_run());
                fx.merge(self.blocking_write(loc, value));
                fx
            }
            NodeOp::WritePipelined(loc, value) => {
                if self.pipe.window == 0 || self.owner_now(loc) == self.state.id() {
                    self.blocking_write(loc, value)
                } else {
                    self.issue_async(loc, value, true)
                }
            }
            NodeOp::WriteNonblocking(loc, value) => self.issue_async(loc, value, false),
            NodeOp::Discard(loc) => {
                self.state.discard(loc);
                Effects::done(Done::Discarded)
            }
            NodeOp::Flush => Effects::done(Done::Flushed),
        }
    }

    fn read(&mut self, loc: Location) -> Effects<V> {
        match self.state.begin_read(loc) {
            ReadStep::Hit { value, wid } => Effects::done(Done::Read { value, wid }),
            ReadStep::Miss { owner, request } => {
                self.pending = Some(Pending::Read { loc });
                let request = self.stamp(owner, request);
                Effects::sent(vec![(owner, request)])
            }
        }
    }

    fn blocking_write(&mut self, loc: Location, value: Arc<V>) -> Effects<V> {
        match self.state.begin_write_shared(loc, Arc::clone(&value)) {
            WriteStep::Done { wid } => Effects::done(Done::Wrote(WriteDone::Applied { wid })),
            WriteStep::Remote {
                owner,
                wid,
                request,
            } => {
                self.pending = Some(Pending::Write { value, wid });
                let request = self.stamp(owner, request);
                Effects::sent(vec![(owner, request)])
            }
        }
    }

    /// Issues a write that completes at issue, `pipelined` through the
    /// open window or raw. With batching, the first pipelined write of a
    /// burst ships on an idle wire (latency) and the run that builds up
    /// behind it during the round trip seals when the wire drains
    /// (throughput), so batches are sized by the round-trip time, capped
    /// at the run cap.
    fn issue_async(&mut self, loc: Location, value: Arc<V>, pipelined: bool) -> Effects<V> {
        let (owner, wid, request) = match self.state.begin_write_nonblocking_shared(loc, value) {
            WriteStep::Done { wid } => {
                return Effects::done(Done::Wrote(WriteDone::Applied { wid }))
            }
            WriteStep::Remote {
                owner,
                wid,
                request,
            } => (owner, wid, request),
        };
        let request = self.stamp(owner, request);
        self.absorbing.insert(wid, pipelined);
        let p = &mut self.pipe;
        if pipelined {
            p.owner = Some(owner);
            p.in_flight += 1;
        }
        let outgoing = if pipelined && p.batching {
            p.buffer.push(request);
            if p.buffer.len() >= p.run_cap || p.in_flight == p.buffer.len() {
                self.seal_run()
            } else {
                Vec::new()
            }
        } else {
            vec![(owner, request)]
        };
        Effects {
            outgoing,
            ..Effects::done(Done::Wrote(WriteDone::Applied { wid }))
        }
    }

    /// Everything buffered, as one envelope toward the pipeline's owner
    /// (runs of two or more wrap in [`Msg::Batch`]); empty when nothing is
    /// buffered.
    fn seal_run(&mut self) -> Vec<(NodeId, Msg<V>)> {
        if self.pipe.buffer.is_empty() {
            return Vec::new();
        }
        let owner = self
            .pipe
            .owner
            .expect("buffered writes always have an owner");
        let mut run = std::mem::take(&mut self.pipe.buffer);
        let envelope = if run.len() == 1 {
            run.pop().expect("length checked")
        } else {
            Msg::Batch(run)
        };
        vec![(owner, envelope)]
    }

    /// With failover enabled, wraps an outgoing Figure-4 request in the
    /// `(epoch, op)` envelope and tracks it for NACK redirect and timeout
    /// retry; a passthrough otherwise.
    fn stamp(&mut self, owner: NodeId, request: Msg<V>) -> Msg<V> {
        if self.fo.is_none() {
            return request;
        }
        let page = match &request {
            Msg::Read { page } => *page,
            Msg::Write { loc, .. } => loc.page(self.state.config().page_size()),
            other => unreachable!("only owner requests are stamped: {other:?}"),
        };
        let epoch = self.state.epoch_of(page);
        let op = self.state.next_op_id();
        let me = self.state.id();
        let fo = self.fo.as_mut().expect("checked above");
        let salt = ((me.index() as u64) << 32) | (op & 0xFFFF_FFFF);
        let deadline = fo.now + attempt_window(&fo.config, 0, salt);
        fo.inflight.push(Inflight {
            op,
            page,
            target: owner,
            request: request.clone(),
            deadline,
            attempt: 0,
        });
        Msg::Stamped {
            epoch,
            op,
            inner: Box::new(request),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg<V>) -> Effects<V> {
        match msg {
            // Engine-internal; hosts stop their loop on it.
            Msg::Halt => Effects::empty(),
            // Pure liveness: already recorded.
            Msg::Heartbeat { .. } => Effects::empty(),
            Msg::Suspect { suspect, epochs } => {
                self.state.absorb_suspect(suspect, &epochs);
                self.redispatch_inflight()
            }
            Msg::Replicate {
                page,
                vt,
                slots,
                origins,
            } => {
                self.state
                    .apply_replicate(page, vt.into_inner(), slots, origins);
                Effects::empty()
            }
            Msg::Interest { page } => {
                // A peer evicted its copy: it is no longer interested.
                self.state.handle_interest_drop(page, from);
                Effects::empty()
            }
            Msg::Nack {
                page, op, epoch, ..
            } => self.on_nack(page, op, epoch),
            Msg::Stamped { epoch, op, inner } if inner.is_request() => {
                let mut fx = Effects::empty();
                if let Some(reply) = self.state.serve_stamped(from, epoch, op, *inner) {
                    fx.outgoing.push((from, reply));
                }
                // Serving may have adopted a newer epoch.
                fx.merge(self.redispatch_inflight());
                fx
            }
            Msg::Stamped { op, inner, .. } => {
                // Matched against the in-flight table by op id; a reply
                // to an abandoned attempt is silently dropped.
                let known = self.fo.as_mut().and_then(|fo| {
                    let i = fo.inflight.iter().position(|e| e.op == op)?;
                    Some(fo.inflight.swap_remove(i))
                });
                match known {
                    Some(_) => self.deliver_reply(*inner),
                    None => Effects::empty(),
                }
            }
            Msg::Batch(parts) => {
                // A transport batch is its parts, in order: requests are
                // served in one pass with a single coalesced invalidation
                // sweep and answered in one envelope (the piggybacked
                // acks); reply parts absorb as if they arrived alone.
                let mut requests = Vec::with_capacity(parts.len());
                let mut fx = Effects::empty();
                for part in parts {
                    if part.is_request() {
                        requests.push(part);
                    } else {
                        fx.merge(self.deliver_reply(part));
                    }
                }
                if !requests.is_empty() {
                    let mut replies = self.state.serve_batch(from, requests);
                    let reply = if replies.len() == 1 {
                        replies.pop().expect("length checked")
                    } else {
                        Msg::Batch(replies)
                    };
                    fx.outgoing.push((from, reply));
                }
                fx
            }
            request if request.is_request() => {
                let reply = self
                    .state
                    .serve(from, request)
                    .expect("requests always produce replies");
                Effects::sent(vec![(from, reply)])
            }
            reply => self.deliver_reply(reply),
        }
    }

    /// Handles a bare reply: absorbs pipelined and raw non-blocking write
    /// replies — sealing the run that built up while the wire was busy and
    /// re-trying a deferred operation as the pipeline drains — and
    /// completes the outstanding operation otherwise. Replies are matched
    /// by content (a READ's page, a WRITE's unique tag), so a stale
    /// leftover of an abandoned attempt is discarded, never misattributed.
    fn deliver_reply(&mut self, msg: Msg<V>) -> Effects<V> {
        if let Msg::WriteReply { wid, .. } = &msg {
            if let Some(pipelined) = self.absorbing.remove(wid) {
                self.state.absorb_write_reply(msg);
                if !pipelined {
                    return Effects::empty();
                }
                let p = &mut self.pipe;
                p.in_flight -= 1;
                let mut fx = Effects::empty();
                if p.in_flight == 0 {
                    p.owner = None;
                } else if p.in_flight == p.buffer.len() {
                    // The wire just drained with writes buffered behind
                    // it: ship them now, as one envelope.
                    fx.outgoing = self.seal_run();
                }
                if let Some(op) = self.deferred.take() {
                    let gate = self.gate(&op);
                    fx.merge(self.apply(gate, op));
                }
                return fx;
            }
        }
        let page_size = self.state.config().page_size();
        let answers = match (&self.pending, &msg) {
            (Some(Pending::Read { loc }), Msg::ReadReply { page, .. }) => {
                loc.page(page_size) == *page
            }
            (Some(Pending::Write { wid, .. }), Msg::WriteReply { wid: got, .. }) => wid == got,
            _ => false,
        };
        if !answers {
            return Effects::empty();
        }
        match self.pending.take().expect("matched above") {
            Pending::Read { loc } => {
                let (value, wid) = self.state.finish_read(loc, msg);
                Effects::done(Done::Read { value, wid })
            }
            Pending::Write { value, wid } => {
                Effects::done(Done::Wrote(self.state.finish_write(value, wid, msg)))
            }
        }
    }

    /// Handles a `[NACK]`: adopts the server's newer epoch and re-routes
    /// the rejected attempt to the node now serving the page.
    fn on_nack(&mut self, page: PageId, op: u64, epoch: OwnerEpoch) -> Effects<V> {
        if let Some(fo) = &mut self.fo {
            if let Some(entry) = fo.inflight.iter_mut().find(|e| e.op == op) {
                entry.attempt = entry.attempt.saturating_add(1);
            }
        }
        self.state.observe_epoch(page, epoch);
        self.redispatch_inflight()
    }

    /// Re-resolves every in-flight request against the current epoch
    /// table: entries whose page migrated are re-stamped and re-sent to
    /// the new owner — or served against the local promoted copy when the
    /// migration landed *here*.
    fn redispatch_inflight(&mut self) -> Effects<V> {
        let Some(fo) = &mut self.fo else {
            return Effects::empty();
        };
        let (now, config) = (fo.now, fo.config);
        let inflight = std::mem::take(&mut fo.inflight);
        let me = self.state.id();
        let mut keep = Vec::with_capacity(inflight.len());
        let mut fx = Effects::empty();
        let mut local = Vec::new();
        for mut entry in inflight {
            let owner = self.state.current_owner(entry.page);
            if owner == entry.target {
                keep.push(entry);
                continue;
            }
            let epoch = self.state.epoch_of(entry.page);
            let op = self.state.next_op_id();
            entry.op = op;
            entry.attempt = entry.attempt.saturating_add(1);
            if owner == me {
                // The page migrated *to us* mid-operation: serve our own
                // request against the promoted copy.
                let reply = self
                    .state
                    .serve_stamped(me, epoch, op, entry.request.clone())
                    .expect("owner answers its own request");
                match reply {
                    Msg::Stamped { inner, .. } => local.push(*inner),
                    other => unreachable!("self-serve cannot be refused: {other:?}"),
                }
            } else {
                let salt = ((me.index() as u64) << 32) | (op & 0xFFFF_FFFF);
                entry.deadline = now + attempt_window(&config, entry.attempt, salt);
                entry.target = owner;
                fx.outgoing.push((
                    owner,
                    Msg::Stamped {
                        epoch,
                        op,
                        inner: Box::new(entry.request.clone()),
                    },
                ));
                // A migrated pipelined window now points at the successor.
                if let Msg::Write { wid, .. } = &entry.request {
                    if self.absorbing.get(wid) == Some(&true) {
                        self.pipe.owner = Some(owner);
                    }
                }
                keep.push(entry);
            }
        }
        self.fo.as_mut().expect("checked above").inflight = keep;
        // Locally served replies absorb exactly as if they had arrived
        // over the wire (their entries are already retired above).
        for inner in local {
            fx.merge(self.deliver_reply(inner));
        }
        fx
    }

    /// Locally declares `node` crashed: migrates its pages to their
    /// successors, announces the `[SUSPECT]` decision (to the suspect
    /// too: a restarted node learns it was replaced), and re-dispatches
    /// any requests that pointed at it.
    fn declare_suspect(&mut self, node: NodeId) -> Effects<V> {
        let already = self.state.is_suspected(node);
        let migrated = self.state.suspect(node);
        if already && migrated.is_empty() {
            return self.redispatch_inflight();
        }
        let me = self.state.id();
        // With a scoped heartbeat fanout the decision goes only to the
        // parties that need it now; everyone else learns lazily via NACK
        // redirects. `None` means broadcast (all-pairs mode).
        let targets = self
            .state
            .suspect_targets(node, &migrated)
            .unwrap_or_else(|| {
                (0..self.state.config().nodes())
                    .map(NodeId::new)
                    .filter(|peer| *peer != me)
                    .collect()
            });
        let msg = Msg::Suspect {
            suspect: node,
            epochs: migrated,
        };
        let mut fx = Effects::sent(targets.into_iter().map(|p| (p, msg.clone())).collect());
        fx.merge(self.redispatch_inflight());
        fx
    }

    /// Requests whose attempt window ran out at `now`. The blocking
    /// operation's request fails with [`MemoryError::Timeout`] once its
    /// attempts exceed [`FailoverConfig::max_retries`]; every other
    /// expired attempt counts as evidence that its target crashed, which
    /// migrates the target's pages and retries against the successor.
    fn expire(&mut self, now: u64) -> Effects<V> {
        let fo = self.fo.as_mut().expect("failover only");
        let max = fo.config.max_retries;
        let mut inflight = std::mem::take(&mut fo.inflight);
        let mut fx = Effects::empty();
        let spent = |e: &Inflight<V>| e.deadline <= now && e.attempt >= max;
        if let Some(i) = inflight
            .iter()
            .position(|e| spent(e) && self.is_pending(&e.request))
        {
            let owner = inflight.swap_remove(i).target;
            self.pending = None;
            fx.done = Some(Err(MemoryError::Timeout { owner }));
        }
        let expired: Vec<NodeId> = inflight
            .iter()
            .filter(|e| e.deadline <= now)
            .map(|e| e.target)
            .collect();
        self.fo.as_mut().expect("failover only").inflight = inflight;
        for target in expired {
            fx.merge(self.declare_suspect(target));
        }
        fx
    }

    /// Whether `request` is the outstanding blocking operation's (reads
    /// always block; a write only if it is the pending one).
    fn is_pending(&self, request: &Msg<V>) -> bool {
        match (request, &self.pending) {
            (Msg::Read { .. }, _) => true,
            (Msg::Write { wid, .. }, Some(Pending::Write { wid: pending, .. })) => wid == pending,
            _ => false,
        }
    }
}
