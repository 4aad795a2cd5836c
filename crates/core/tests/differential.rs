//! Differential test: the deterministic simulator and the threaded engine
//! run the same node driver, so one seeded script with one operation in
//! flight across the whole cluster puts the same traffic on the wire on
//! both hosts.
//!
//! The engine side hosts each node in its own `CausalCluster` over a
//! partial network whose remote link is an in-process loopback, so every
//! envelope a node sends passes one tap — the shape a multi-process
//! cluster has. The simulator side wraps each `CausalActor` in an actor
//! that taps its outgoing effects.
//!
//! * At window 0 each node's sent `(dst, kind, payload)` stream must be
//!   identical on both hosts.
//! * At window 32 with batching, when replies return depends on thread
//!   timing, so only each node's logical per-kind bill must be identical.
//!
//! The script covers, on every node, a read miss, an invalidation, an
//! owner-local write and (at window 32) a pipeline drain; the test checks
//! that coverage on the simulator, where it is deterministic.

use std::sync::{Arc, OnceLock};

use causal_dsm::{CausalCluster, CausalConfig, CausalState, Msg};
use dsm_sim::{Actor, CausalActor, ClientOp, Effects, Script, Sim, SimOpts};
use memcore::{Location, NodeId, SharedMemory, Word};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simnet::{Envelope, Network, RemoteLink, SendError, Tagged};

const NODES: u32 = 3;
const LOCATIONS: u32 = 9;

/// One sent message: destination, kind, and the payload's full rendering.
type Sent = (NodeId, &'static str, String);

/// Per-node sent streams.
type Streams = Arc<Mutex<Vec<Vec<Sent>>>>;

fn sent(dst: NodeId, msg: &Msg<Word>) -> Sent {
    (dst, msg.kind(), format!("{msg:?}"))
}

#[derive(Clone, Debug)]
enum Op {
    Read(u32),
    ReadFresh(u32),
    Write(u32, i64),
}

/// A burst of operations one node runs while every other node is idle.
type Burst = (u32, Vec<Op>);

/// Locations owned by `node` (round-robin ownership).
fn owned_by(node: u32) -> Vec<u32> {
    (0..LOCATIONS).filter(|l| l % NODES == node).collect()
}

fn pick(rng: &mut ChaCha8Rng, from: &[u32]) -> u32 {
    from[rng.gen_range(0..from.len())]
}

/// The seeded script. Each burst may start with reads, then pipelines
/// writes to one remote owner and ends with an operation that drains the
/// pipeline — a fresh read from that owner, an owner-local write, or a
/// write to another owner. What a node sees after a drain cannot depend
/// on when its replies returned, so the logical bill is timing-free even
/// with the pipeline on.
fn script(seed: u64) -> Vec<Burst> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut value = 0i64;
    let mut bursts = Vec::new();
    for _ in 0..12 {
        let mut order: Vec<u32> = (0..NODES).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for node in order {
            let mut ops = Vec::new();
            for _ in 0..rng.gen_range(0..3) {
                ops.push(Op::Read(rng.gen_range(0..LOCATIONS)));
            }
            let others: Vec<u32> = (0..NODES).filter(|n| *n != node).collect();
            let owner = pick(&mut rng, &others);
            for _ in 0..rng.gen_range(1..4) {
                value += 1;
                let loc = pick(&mut rng, &owned_by(owner));
                ops.push(Op::Write(loc, value));
            }
            value += 1;
            ops.push(match rng.gen_range(0..3) {
                0 => Op::ReadFresh(pick(&mut rng, &owned_by(owner))),
                1 => Op::Write(pick(&mut rng, &owned_by(node)), value),
                _ => {
                    let other = others.iter().find(|n| **n != owner).expect("three nodes");
                    Op::Write(pick(&mut rng, &owned_by(*other)), value)
                }
            });
            bursts.push((node, ops));
        }
    }
    bursts
}

fn config(window: u32) -> CausalConfig<Word> {
    CausalConfig::builder(NODES, LOCATIONS)
        .pipeline_window(window)
        .batching(window > 0)
        .build()
}

/// A `CausalActor` whose outgoing messages are tapped.
struct Tap {
    inner: CausalActor<Word>,
    streams: Streams,
}

impl Tap {
    fn log(&self, fx: Effects<Word, Msg<Word>>) -> Effects<Word, Msg<Word>> {
        let me = self.inner.id().index();
        let mut streams = self.streams.lock();
        for (dst, msg) in &fx.outgoing {
            streams[me].push(sent(*dst, msg));
        }
        fx
    }
}

impl Actor<Word> for Tap {
    type Msg = Msg<Word>;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn submit(&mut self, op: &ClientOp<Word>) -> Effects<Word, Msg<Word>> {
        let fx = self.inner.submit(op);
        self.log(fx)
    }

    fn deliver(&mut self, from: NodeId, msg: Msg<Word>) -> Effects<Word, Msg<Word>> {
        let fx = self.inner.deliver(from, msg);
        self.log(fx)
    }

    fn authority(&self, loc: Location) -> NodeId {
        self.inner.authority(loc)
    }

    fn peek(&self, loc: Location) -> Option<Word> {
        self.inner.peek(loc)
    }
}

/// What one run leaves behind, per node.
struct Run {
    streams: Vec<Vec<Sent>>,
    /// `(kind, count)` sent by each node.
    bills: Vec<Vec<(String, u64)>>,
    /// Read results, in script order.
    reads: Vec<Word>,
}

fn bills(snap: &memcore::StatsSnapshot, node: u32, kinds: &[String]) -> Vec<(String, u64)> {
    kinds
        .iter()
        .map(|k| (k.clone(), snap.get(NodeId::new(node), k)))
        .filter(|(_, c)| *c > 0)
        .collect()
}

/// Every kind either host can send, for per-node bill comparison.
fn all_kinds() -> Vec<String> {
    ["READ", "R_REPLY", "WRITE", "W_REPLY"]
        .iter()
        .map(|k| (*k).to_owned())
        .collect()
}

fn run_sim(window: u32, bursts: &[Burst]) -> (Run, Vec<CausalActor<Word>>) {
    let streams: Streams = Arc::new(Mutex::new(vec![Vec::new(); NODES as usize]));
    let config = config(window);
    let actors = (0..NODES)
        .map(|i| Tap {
            inner: CausalActor::new(CausalState::new(NodeId::new(i), config.clone())),
            streams: Arc::clone(&streams),
        })
        .collect();
    let mut sim = Sim::new(actors, SimOpts::default());
    let reads = Arc::new(Mutex::new(Vec::new()));
    for (node, ops) in bursts {
        let ops: Vec<ClientOp<Word>> = ops
            .iter()
            .map(|op| match op {
                Op::Read(l) => ClientOp::Read(Location::new(*l)),
                Op::ReadFresh(l) => ClientOp::ReadFresh(Location::new(*l)),
                Op::Write(l, v) => ClientOp::Write(Location::new(*l), Word::Int(*v)),
            })
            .collect();
        let reads = Arc::clone(&reads);
        let mut script = Script::new(ops);
        sim.set_client(
            *node as usize,
            dsm_sim::FnClient::new(move |last: Option<&dsm_sim::Outcome<Word>>| {
                if let Some(dsm_sim::Outcome::Read { value, .. }) = last {
                    reads.lock().push(*value);
                }
                dsm_sim::Client::next(&mut script, None)
            }),
        );
        let report = sim.run_to_completion();
        assert!(report.all_done, "simulated burst wedged");
    }
    let snap = sim.messages().snapshot();
    let kinds = all_kinds();
    let run = Run {
        streams: streams.lock().clone(),
        bills: (0..NODES).map(|i| bills(&snap, i, &kinds)).collect(),
        reads: reads.lock().clone(),
    };
    let actors = (0..NODES as usize)
        .map(|i| sim.actor(i).inner.clone())
        .collect();
    (run, actors)
}

/// Carries every envelope between the engine's single-node clusters,
/// logging it on the way.
struct Loopback {
    nets: OnceLock<Vec<Network<Msg<Word>>>>,
    streams: Streams,
}

impl RemoteLink<Msg<Word>> for Loopback {
    fn send_remote(&self, env: Envelope<Msg<Word>>) -> Result<(), SendError> {
        self.streams.lock()[env.src.index()].push(sent(env.dst, &env.payload));
        self.nets.get().expect("networks are wired")[env.dst.index()].inject(env)
    }
}

fn run_engine(window: u32, bursts: &[Burst]) -> Run {
    let streams: Streams = Arc::new(Mutex::new(vec![Vec::new(); NODES as usize]));
    let link = Arc::new(Loopback {
        nets: OnceLock::new(),
        streams: Arc::clone(&streams),
    });
    let nets: Vec<Network<Msg<Word>>> = (0..NODES)
        .map(|i| {
            let link: Arc<dyn RemoteLink<Msg<Word>>> = link.clone();
            Network::partial(NODES as usize, &[NodeId::new(i)], link)
        })
        .collect();
    assert!(link.nets.set(nets.clone()).is_ok(), "wired once");
    let clusters: Vec<CausalCluster<Word>> = nets
        .into_iter()
        .enumerate()
        .map(|(i, net)| {
            CausalCluster::builder(NODES, LOCATIONS)
                .configure(|c| c.pipeline_window(window).batching(window > 0))
                .transport(net, &[NodeId::new(i as u32)])
                .build()
                .expect("engine builds")
        })
        .collect();
    let mut reads = Vec::new();
    for (node, ops) in bursts {
        let h = clusters[*node as usize].handle(*node);
        for op in ops {
            match op {
                Op::Read(l) => reads.push(h.read(Location::new(*l)).unwrap()),
                Op::ReadFresh(l) => reads.push(h.read_fresh(Location::new(*l)).unwrap()),
                Op::Write(l, v) => {
                    h.write_pipelined(Location::new(*l), Word::Int(*v)).unwrap();
                }
            }
        }
        // The simulator runs each burst to quiescence; so does this.
        h.flush().unwrap();
    }
    let kinds = all_kinds();
    let run = Run {
        streams: streams.lock().clone(),
        bills: (0..NODES)
            .map(|i| bills(&clusters[i as usize].messages().snapshot(), i, &kinds))
            .collect(),
        reads,
    };
    for c in &clusters {
        c.shutdown();
    }
    run
}

/// The script exercises every path the driver owns, on every node.
fn assert_coverage(bursts: &[Burst], sim: &Run, actors: &[CausalActor<Word>], window: u32) {
    for node in 0..NODES {
        let i = node as usize;
        assert!(
            sim.bills[i].iter().any(|(k, c)| k == "READ" && *c > 0),
            "node {node} never missed a read"
        );
        assert!(
            actors[i].state().invalidation_count() > 0,
            "node {node} never invalidated a cached page"
        );
        assert!(
            bursts.iter().any(|(n, ops)| *n == node
                && ops
                    .iter()
                    .any(|op| matches!(op, Op::Write(l, _) if l % NODES == node))),
            "node {node} never wrote a location it owns"
        );
        if window > 0 {
            assert!(
                actors[i].driver().drains() > 0,
                "node {node} never drained its pipeline"
            );
        }
    }
}

#[test]
fn window_zero_sends_identical_streams_on_both_hosts() {
    for seed in [1u64, 0x5eed] {
        let bursts = script(seed);
        let (sim, actors) = run_sim(0, &bursts);
        assert_coverage(&bursts, &sim, &actors, 0);
        let engine = run_engine(0, &bursts);
        for node in 0..NODES as usize {
            assert!(!sim.streams[node].is_empty(), "node {node} sent nothing");
            assert_eq!(
                sim.streams[node], engine.streams[node],
                "seed {seed}: node {node}'s sent stream differs between hosts"
            );
        }
        assert_eq!(sim.reads, engine.reads, "seed {seed}: reads differ");
    }
}

#[test]
fn pipelined_batched_run_bills_identically_on_both_hosts() {
    for seed in [1u64, 0x5eed] {
        let bursts = script(seed);
        let (sim, actors) = run_sim(32, &bursts);
        assert_coverage(&bursts, &sim, &actors, 32);
        let engine = run_engine(32, &bursts);
        for node in 0..NODES as usize {
            assert_eq!(
                sim.bills[node], engine.bills[node],
                "seed {seed}: node {node}'s per-kind bill differs between hosts"
            );
        }
        assert_eq!(sim.reads, engine.reads, "seed {seed}: reads differ");
    }
}
