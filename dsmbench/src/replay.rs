//! Step-by-step replay of a script through `CausalState` and `Network` on
//! one thread.
//!
//! Each remote operation is driven by hand: the issuer's `begin_*` step,
//! `Network::send` of the request, `Mailbox` receive at the owner, the
//! owner's `serve`, the reply's send and receive, and the issuer's
//! `finish_*`. With one client thread the threaded engine runs exactly
//! this sequence of state steps, so the replay's message bill is the
//! script's exact bill, and its spans give each state and transport call
//! its self time with no thread wake-up in between.

use std::sync::Arc;

use causal_dsm::{CausalConfig, CausalState, Msg, ReadStep, WriteStep};
use memcore::{Location, NodeId, Value};
use simnet::{Mailbox, Network, Tagged};

use crate::trace::{SpanId, Tracer};

/// One operation to replay: a read, or a write of `write`.
#[derive(Clone, Debug)]
pub struct ReplayOp<V> {
    /// Issuing node.
    pub node: u32,
    /// Location.
    pub loc: Location,
    /// `None` for a read.
    pub write: Option<Arc<V>>,
}

impl ReplayOp<Vec<u8>> {
    /// The ops of a mixed script, in issue order.
    #[must_use]
    pub fn from_script(script: &crate::script::MixedScript) -> Vec<Self> {
        script
            .steps
            .iter()
            .enumerate()
            .map(|(i, s)| ReplayOp {
                node: s.node,
                loc: s.loc,
                write: (!s.read).then(|| Arc::new(script.value(i).clone())),
            })
            .collect()
    }
}

/// What a replay sent and saw.
#[derive(Debug)]
pub struct Replay<V> {
    /// Logical messages sent (the `Network` message counter).
    pub msgs: u64,
    /// Bytes the `Network` byte counter accounted.
    pub bytes: u64,
    /// Per op: whether it needed an owner round trip.
    pub remote: Vec<bool>,
    /// The first messages sent, in order (the workload's message mix).
    pub captured: Vec<Msg<V>>,
    /// `NetStats::record`/`record_n` calls the sends made.
    pub netstats_records: u64,
    /// Reads that completed from local memory.
    pub read_hits: u64,
    /// Reads in the script.
    pub reads: u64,
}

struct Stepper<'t, V> {
    net: Network<Msg<V>>,
    boxes: Vec<Mailbox<Msg<V>>>,
    tracer: Option<&'t mut Tracer>,
    captured: Vec<Msg<V>>,
    capture: usize,
    records: u64,
}

impl<V: Value> Stepper<'_, V> {
    fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        match self.tracer.as_deref_mut() {
            Some(t) => t.span(name, op, parent, f),
            None => f(),
        }
    }

    /// One hop: `Network::send` then the destination's `Mailbox` receive.
    fn hop(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        src: NodeId,
        dst: NodeId,
        msg: Msg<V>,
    ) -> Msg<V> {
        self.records +=
            2 + u64::from(msg.wire_size().is_some()) + u64::from(msg.metadata_size() > 0);
        if self.captured.len() < self.capture {
            self.captured.push(msg.clone());
        }
        let net = self.net.clone();
        self.span("simnet.send", op, parent, || net.send(src, dst, msg))
            .expect("replay network is alive");
        let mailbox = &self.boxes[dst.index()];
        let env = match self.tracer.as_deref_mut() {
            Some(t) => t.span("simnet.recv", op, parent, || mailbox.try_recv()),
            None => mailbox.try_recv(),
        };
        env.expect("a sent message is queued").payload
    }
}

/// Replays `ops` from fresh state under `config`, capturing the first
/// `capture` messages, recording spans into `tracer` when given.
///
/// # Panics
///
/// Panics if the protocol produces a reply of the wrong kind (a bug).
pub fn replay<V: Value>(
    config: &CausalConfig<V>,
    ops: &[ReplayOp<V>],
    capture: usize,
    tracer: Option<&mut Tracer>,
) -> Replay<V> {
    let n = config.nodes();
    let mut states: Vec<CausalState<V>> = (0..n)
        .map(|i| CausalState::new(NodeId::new(i), config.clone()))
        .collect();
    let net: Network<Msg<V>> = Network::new(n as usize);
    let boxes = (0..n).map(|i| net.take_mailbox(NodeId::new(i))).collect();
    let mut d = Stepper {
        net,
        boxes,
        tracer,
        captured: Vec::new(),
        capture,
        records: 0,
    };
    let mut remote = Vec::with_capacity(ops.len());
    let (mut reads, mut read_hits) = (0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        let i = i as u64;
        let me = NodeId::new(op.node);
        let issuer = op.node as usize;
        match &op.write {
            None => {
                reads += 1;
                let root = d
                    .tracer
                    .as_deref_mut()
                    .map(|t| t.open("replay.read", i, None));
                let step = d.span("core.state.begin_read", i, root, || {
                    states[issuer].begin_read(op.loc)
                });
                match step {
                    ReadStep::Hit { value, .. } => {
                        read_hits += 1;
                        remote.push(false);
                        std::hint::black_box(value);
                    }
                    ReadStep::Miss { owner, request } => {
                        remote.push(true);
                        let req = d.hop(i, root, me, owner, request);
                        let st = &mut states[owner.index()];
                        let reply = d
                            .span("core.state.serve", i, root, || st.serve(me, req))
                            .expect("a READ is answered");
                        let reply = d.hop(i, root, owner, me, reply);
                        let st = &mut states[issuer];
                        let got = d.span("core.state.finish_read", i, root, || {
                            st.finish_read(op.loc, reply)
                        });
                        std::hint::black_box(got);
                    }
                }
                if let (Some(t), Some(r)) = (d.tracer.as_deref_mut(), root) {
                    t.close(r);
                }
            }
            Some(value) => {
                let root = d
                    .tracer
                    .as_deref_mut()
                    .map(|t| t.open("replay.write", i, None));
                let v = Arc::clone(value);
                let st = &mut states[issuer];
                let step = d.span("core.state.begin_write", i, root, || {
                    st.begin_write_shared(op.loc, v)
                });
                match step {
                    WriteStep::Done { .. } => remote.push(false),
                    WriteStep::Remote {
                        owner,
                        wid,
                        request,
                    } => {
                        remote.push(true);
                        let req = d.hop(i, root, me, owner, request);
                        let st = &mut states[owner.index()];
                        let reply = d
                            .span("core.state.serve", i, root, || st.serve(me, req))
                            .expect("a WRITE is answered");
                        let reply = d.hop(i, root, owner, me, reply);
                        let st = &mut states[issuer];
                        let v = Arc::clone(value);
                        let done = d.span("core.state.finish_write", i, root, || {
                            st.finish_write(v, wid, reply)
                        });
                        std::hint::black_box(done);
                    }
                }
                if let (Some(t), Some(r)) = (d.tracer.as_deref_mut(), root) {
                    t.close(r);
                }
            }
        }
    }
    Replay {
        msgs: d.net.messages().snapshot().total(),
        bytes: d.net.bytes().snapshot().total(),
        remote,
        captured: d.captured,
        netstats_records: d.records,
        read_hits,
        reads,
    }
}
