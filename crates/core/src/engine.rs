//! The threaded engine: a shell around one [`NodeDriver`] per node.
//!
//! The paper requires that "each operation must be executed atomically and
//! owners must fairly alternate between issuing reads and writes and
//! responding to READ and WRITE messages from other processors". The
//! driver holds every protocol decision; this shell only runs it. Each
//! node's driver sits under one lock. Application handles submit
//! operations and park until the driver completes them; a per-node
//! *server* loop (a thread, or the transport's own I/O thread for an
//! inline build) delivers inbound messages; with failover configured, a
//! ticker thread drives heartbeats and retry deadlines. A blocked
//! operation holds no lock, so a node serves requests while one of its own
//! operations waits, which is exactly the fair alternation the paper asks
//! for (and what makes the protocol deadlock-free).

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use dsm_durable::{Disk, Store, WalRecord};
use memcore::{
    Location, MemoryError, NetStats, NodeId, OpRecord, Recorder, SharedMemory, Value, WriteId,
};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use simnet::codec::Wire;
use simnet::{Envelope, Network};
use vclock::VectorClock;

use crate::config::{CausalConfig, CausalConfigBuilder};
use crate::driver::{Done, Effects, NodeDriver, NodeOp};
use crate::msg::Msg;
use crate::state::{CausalState, WriteDone};

/// Where a node's durability journal goes: appends records (returning
/// once they are as durable as the store's sync policy promises) and
/// checkpoints from the state when enough accumulated. A closure, so the
/// engine itself needs no `Wire` bound on `V` — only the builder's
/// [`disks`](CausalClusterBuilder::disks) option, which opens real
/// [`Store`]s, does.
type Journal<V> = Box<dyn FnMut(&[WalRecord<V>], &CausalState<V>) + Send>;

/// Per-node boot material for a durable build: the journal plus the
/// state recovered from (or freshly created against) its disk.
struct DurableBoot<V: Value> {
    journal: Journal<V>,
    state: CausalState<V>,
}

/// Opens each disk of a durable build once the configuration is known.
type OpenDisks<V> = Box<dyn FnOnce(&CausalConfig<V>) -> Vec<(NodeId, DurableBoot<V>)>>;

/// What an operation's caller receives: its result, or `Shutdown`.
type Completion<V> = Result<Done<V>, MemoryError>;

struct NodeShared<V: Value> {
    /// The node's driver. A reader–writer lock: cache-hit reads are
    /// non-mutating (Figure 4's read procedure touches no state on a hit)
    /// and run under the shared lock, concurrently with each other;
    /// every driver call takes the exclusive lock.
    driver: RwLock<NodeDriver<V>>,
    /// Orders this node's sends; see [`NodeShared::commit`].
    send_order: Mutex<()>,
    /// Serializes this node's application operations (program order):
    /// the driver takes one outstanding operation at a time. Cache-hit
    /// reads and owner-local writes on an idle pipeline don't take it.
    op_lock: Mutex<()>,
    /// Completions of parked operations, sent by the server loop or the
    /// ticker. Disconnects when both are gone (shutdown).
    done: Receiver<Completion<V>>,
    /// The node's write-ahead log, if this is a durable build. Only ever
    /// locked under the exclusive driver lock.
    wal: Option<Mutex<Journal<V>>>,
}

impl<V: Value> NodeShared<V> {
    /// Carries out one driver call's effects, releasing the exclusive
    /// driver lock the call ran under. Journal records are appended
    /// first, under that lock, so a certified operation is as durable as
    /// the sync policy promises before any reply leaves, and the log's
    /// order matches the state-mutation order; checkpoints are taken
    /// under the same lock, so no record slips in between the image
    /// capture and the commit. The send lock is taken before the driver
    /// lock is dropped, so the wire carries each node's sends in the
    /// order its driver emitted them while the driver is free for the
    /// next event during the sends. Returns the completion and whether
    /// every send went through.
    fn commit(
        &self,
        driver: RwLockWriteGuard<'_, NodeDriver<V>>,
        me: NodeId,
        net: &Network<Msg<V>>,
        fx: Effects<V>,
    ) -> (Option<Completion<V>>, bool) {
        if let Some(wal) = &self.wal {
            if !fx.wal.is_empty() {
                (wal.lock())(&fx.wal, driver.state());
            }
        }
        if fx.outgoing.is_empty() {
            return (fx.done, true);
        }
        let _order = self.send_order.lock();
        drop(driver);
        let mut sent = true;
        for (dst, msg) in fx.outgoing {
            sent &= net.send(me, dst, msg).is_ok();
        }
        (fx.done, sent)
    }
}

/// The driver's clock: milliseconds since cluster start under failover,
/// which alone reads time (heartbeats, retry deadlines); constant
/// otherwise, so the common path never reads the clock.
#[derive(Clone, Copy)]
struct Clock(Option<Instant>);

impl Clock {
    fn now(self) -> u64 {
        self.0.map_or(0, |start| start.elapsed().as_millis() as u64)
    }
}

/// One node's server loop as a value, shared by the thread (or transport)
/// that delivers its messages and by its ticker.
struct ServerCtx<V: Value> {
    me: NodeId,
    node: Arc<NodeShared<V>>,
    net: Network<Msg<V>>,
    /// Wakes the application operation parked on `NodeShared::done`.
    /// Held only here, so dropping the server loop (and ticker) is what
    /// disconnects parked handles.
    done_tx: Sender<Completion<V>>,
    clock: Clock,
}

impl<V: Value> ServerCtx<V> {
    /// Runs one driver call, hands a completion to the parked operation,
    /// and returns when the driver next wants a tick. Sends are best
    /// effort: a peer may already be shutting down.
    fn run(&self, f: impl FnOnce(&mut NodeDriver<V>) -> Effects<V>) -> Option<u64> {
        let mut driver = self.node.driver.write();
        let fx = f(&mut driver);
        let next = fx.next_timer;
        let (done, _) = self.node.commit(driver, self.me, &self.net, fx);
        if let Some(done) = done {
            let _ = self.done_tx.send(done);
        }
        next
    }

    /// Delivers one inbound envelope. Returns `false` on [`Msg::Halt`] —
    /// the loop's exit signal.
    fn process(&self, env: Envelope<Msg<V>>) -> bool {
        if matches!(env.payload, Msg::Halt) {
            return false;
        }
        let now = self.clock.now();
        self.run(|d| d.deliver(now, env.src, env.payload));
        true
    }
}

/// A single node's server loop, handed to the transport instead of a
/// thread: built by [`CausalClusterBuilder::build_inline`], consumed by an
/// I/O layer (such as `dsm-net`'s poller) that calls
/// [`InlineServer::deliver`] for every inbound envelope it decodes.
///
/// Exactly one I/O thread must drive it: the node's messages must be
/// delivered in arrival order, which an event-loop transport's one poller
/// guarantees the same way the engine's own server thread does.
pub struct InlineServer<V: Value> {
    ctx: Arc<ServerCtx<V>>,
    /// Disconnects at shutdown.
    stop: Receiver<()>,
}

impl<V: Value> InlineServer<V> {
    /// Runs the server loop's body for one envelope on the caller's
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Shutdown`] once the owning cluster has shut
    /// down (or the envelope was [`Msg::Halt`]) — the transport should
    /// stop delivering.
    pub fn deliver(&self, env: Envelope<Msg<V>>) -> Result<(), MemoryError> {
        let stopped = matches!(self.stop.try_recv(), Err(TryRecvError::Disconnected));
        if stopped || !self.ctx.process(env) {
            return Err(MemoryError::Shutdown);
        }
        Ok(())
    }

    /// The node this server serves.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.ctx.me
    }
}

impl<V: Value> std::fmt::Debug for InlineServer<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InlineServer")
            .field("node", &self.ctx.me)
            .finish_non_exhaustive()
    }
}

struct ClusterInner<V: Value> {
    config: CausalConfig<V>,
    net: Network<Msg<V>>,
    nodes: Vec<Arc<NodeShared<V>>>,
    /// The nodes whose server loops run in this process — all of them
    /// for an in-process cluster, a subset when the cluster spans
    /// processes over a remote transport.
    local: Vec<NodeId>,
    recorder: Option<Recorder<V>>,
    servers: Mutex<Vec<JoinHandle<()>>>,
    /// One stop latch per ticker (spawned only with failover configured)
    /// and inline server: shutdown drops them, which disconnects their
    /// receivers at once — even out of a ticker's interval wait.
    stops: Mutex<Vec<Sender<()>>>,
    clock: Clock,
}

/// A running causal DSM: `n` nodes connected by a reliable FIFO network,
/// each executing the Figure-4 owner protocol.
///
/// Obtain per-process handles with [`CausalCluster::handle`]; drop the
/// cluster (or call [`CausalCluster::shutdown`]) to stop the server
/// threads.
///
/// # Examples
///
/// ```
/// use causal_dsm::CausalCluster;
/// use memcore::{Location, SharedMemory, Word};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = CausalCluster::<Word>::builder(2, 4).build()?;
/// let p0 = cluster.handle(0);
/// let p1 = cluster.handle(1);
/// p0.write(Location::new(0), Word::Int(1))?;
/// assert_eq!(p1.read(Location::new(0))?, Word::Int(1));
/// # Ok(())
/// # }
/// ```
pub struct CausalCluster<V: Value> {
    inner: Arc<ClusterInner<V>>,
}

/// Builder for [`CausalCluster`]: the protocol configuration plus the
/// engine's options — operation recording, the transport and the nodes
/// this process hosts, per-node disks, and an inline build.
pub struct CausalClusterBuilder<V: Value> {
    config: CausalConfigBuilder<V>,
    recorder: Option<Recorder<V>>,
    transport: Option<(Network<Msg<V>>, Vec<NodeId>)>,
    disks: Option<OpenDisks<V>>,
}

impl<V: Value + Default> CausalCluster<V> {
    /// Starts building a cluster of `nodes` processors sharing `locations`
    /// locations.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `locations` is zero.
    #[must_use]
    pub fn builder(nodes: u32, locations: u32) -> CausalClusterBuilder<V> {
        CausalClusterBuilder {
            config: CausalConfig::builder(nodes, locations),
            recorder: None,
            transport: None,
            disks: None,
        }
    }
}

impl<V: Value> CausalClusterBuilder<V> {
    /// Applies `f` to the underlying protocol configuration builder.
    #[must_use]
    pub fn configure(
        mut self,
        f: impl FnOnce(CausalConfigBuilder<V>) -> CausalConfigBuilder<V>,
    ) -> Self {
        self.config = f(self.config);
        self
    }

    /// Records every completed operation into `recorder` (for checking
    /// against the executable specification).
    #[must_use]
    pub fn recorder(mut self, recorder: Recorder<V>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Runs over an existing transport, hosting only the nodes in `local`
    /// (default: a fresh in-process [`Network`] hosting every node).
    ///
    /// This is how a cluster spans processes: each process builds a
    /// [`Network::partial`] whose remote link carries envelopes
    /// off-process (e.g. `dsm-net`'s TCP mesh), then builds its share of
    /// the cluster with the node ids it hosts. Server loops and tickers
    /// run only for `local` nodes; handles exist only for them. Remote
    /// peers are reached through the same `send` path, so the message
    /// bills stay comparable to the in-process transport.
    ///
    /// The build panics if the network's size differs from the configured
    /// node count, `local` is empty, or any id in `local` has no mailbox
    /// in this process.
    #[must_use]
    pub fn transport(mut self, net: Network<Msg<V>>, local: &[NodeId]) -> Self {
        self.transport = Some((net, local.to_vec()));
        self
    }

    /// Gives each `(node, disk)` pair's node a write-ahead log (see
    /// `dsm_durable`). A disk that already holds state makes the node
    /// *recover* — replaying its checkpoint and log tail into page images,
    /// origin clocks, and the owner-epoch table — and rejoin as a full
    /// peer under a bumped incarnation.
    ///
    /// The build panics if the configuration carries no
    /// [`durability`](crate::CausalConfigBuilder::durability) setting or
    /// a disk is supplied for a node this process does not host.
    #[must_use]
    pub fn disks(mut self, disks: Vec<(NodeId, Box<dyn Disk>)>) -> Self
    where
        V: Wire,
    {
        self.disks = Some(Box::new(move |config: &CausalConfig<V>| {
            let dcfg = config
                .durability()
                .expect("durable build requires a durability config");
            disks
                .into_iter()
                .map(|(id, disk)| {
                    let (mut store, recovered) = Store::open(disk, dcfg);
                    let incarnation = recovered.next_incarnation();
                    let state = if recovered.is_virgin() {
                        CausalState::new(id, config.clone())
                    } else {
                        CausalState::recover(id, config.clone(), recovered.records, incarnation)
                    };
                    let journal: Journal<V> = Box::new(move |records, state| {
                        store.append(records);
                        if store.wants_checkpoint() {
                            store.checkpoint(&state.durable_image());
                        }
                    });
                    (id, DurableBoot { journal, state })
                })
                .collect()
        }));
        self
    }

    /// Builds the cluster and spawns a server thread per hosted node.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility
    /// with fallible transports.
    pub fn build(self) -> Result<CausalCluster<V>, MemoryError> {
        self.build_engine(false).map(|(cluster, _)| cluster)
    }

    /// Builds a cluster hosting exactly one node, spawning **no server
    /// thread**: the returned [`InlineServer`] is the node's server loop
    /// as a value, and the transport delivers each inbound envelope by
    /// calling [`InlineServer::deliver`] on its own I/O thread. `dsm-net`'s
    /// poller serves requests the moment it decodes them — the same
    /// Figure-4 steps, minus one thread per process and two scheduler hops
    /// per owner round trip.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    ///
    /// # Panics
    ///
    /// Panics unless the [`transport`](Self::transport) hosts exactly one
    /// node.
    pub fn build_inline(self) -> Result<(CausalCluster<V>, InlineServer<V>), MemoryError> {
        self.build_engine(true)
            .map(|(cluster, server)| (cluster, server.expect("inline build yields a server")))
    }

    fn build_engine(
        self,
        inline: bool,
    ) -> Result<(CausalCluster<V>, Option<InlineServer<V>>), MemoryError> {
        let config = self.config.build();
        let n = config.nodes() as usize;
        let (net, local) = self.transport.unwrap_or_else(|| {
            let all = (0..n).map(|i| NodeId::new(i as u32)).collect();
            (Network::new(n), all)
        });
        assert_eq!(net.len(), n, "transport size mismatch");
        assert!(!local.is_empty(), "cluster hosts no local node");
        assert!(
            !inline || local.len() == 1,
            "an inline build hosts one node"
        );
        let mut boots: HashMap<NodeId, DurableBoot<V>> = self
            .disks
            .map(|open| open(&config))
            .into_iter()
            .flatten()
            .collect();
        for id in boots.keys() {
            assert!(local.contains(id), "disk supplied for non-local node {id}");
        }
        let failover = config.failover();
        let clock = Clock(failover.map(|_| Instant::now()));
        let mut nodes = Vec::with_capacity(n);
        let mut done_txs = Vec::with_capacity(n);
        for i in 0..n {
            let id = NodeId::new(i as u32);
            let (tx, rx) = unbounded();
            done_txs.push(tx);
            let (state, mut wal) = match boots.remove(&id) {
                Some(boot) => (boot.state, Some(boot.journal)),
                None => (CausalState::new(id, config.clone()), None),
            };
            let mut driver = NodeDriver::new(state);
            if let Some(wal) = &mut wal {
                // Persist the boot watermark (`CausalState::new`'s
                // baseline, or recovery's rejoin record with the bumped
                // incarnation) before any traffic can reference it.
                wal(&driver.take_journal(), driver.state());
            }
            nodes.push(Arc::new(NodeShared {
                driver: RwLock::new(driver),
                send_order: Mutex::new(()),
                op_lock: Mutex::new(()),
                done: rx,
                wal: wal.map(Mutex::new),
            }));
        }

        let mut stops = Vec::new();
        let mut latch = || {
            let (tx, rx) = unbounded::<()>();
            stops.push(tx);
            rx
        };
        let mut servers = Vec::with_capacity(2 * local.len());
        let mut inline_server = None;
        for &me in &local {
            let ctx = Arc::new(ServerCtx {
                me,
                node: Arc::clone(&nodes[me.index()]),
                net: net.clone(),
                done_tx: done_txs[me.index()].clone(),
                clock,
            });
            if let Some(fo) = failover {
                let (ctx, stop) = (Arc::clone(&ctx), latch());
                servers.push(
                    std::thread::Builder::new()
                        .name(format!("causal-ticker-{}", me.index()))
                        .spawn(move || {
                            let mut next = fo.heartbeat_interval.max(1);
                            let wait = |next: u64| {
                                Duration::from_millis(next.saturating_sub(clock.now()).max(1))
                            };
                            while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(wait(next))
                            {
                                next = ctx
                                    .run(|d| d.tick(clock.now()))
                                    .expect("failover drivers keep timers");
                            }
                        })
                        .expect("spawning ticker thread"),
                );
            }
            if inline {
                // The transport drives this node's server loop itself;
                // its mailbox stays with the network, unread (only
                // `Msg::Halt` is ever addressed to it, and inline
                // shutdown runs through its stop latch instead).
                inline_server = Some(InlineServer { ctx, stop: latch() });
                continue;
            }
            let mailbox = net.take_mailbox(me);
            servers.push(
                std::thread::Builder::new()
                    .name(format!("causal-node-{}", me.index()))
                    .spawn(move || {
                        while let Some(env) = mailbox.recv() {
                            if !ctx.process(env) {
                                break;
                            }
                        }
                    })
                    .expect("spawning server thread"),
            );
        }

        let cluster = CausalCluster {
            inner: Arc::new(ClusterInner {
                config,
                net,
                nodes,
                local,
                recorder: self.recorder,
                servers: Mutex::new(servers),
                stops: Mutex::new(stops),
                clock,
            }),
        };
        Ok((cluster, inline_server))
    }
}

impl<V: Value> CausalCluster<V> {
    /// A handle performing operations as process `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or not hosted by this process
    /// (see [`CausalClusterBuilder::transport`]).
    #[must_use]
    pub fn handle(&self, node: u32) -> CausalHandle<V> {
        assert!(
            (node as usize) < self.inner.nodes.len(),
            "node {node} out of range"
        );
        assert!(
            self.inner.local.contains(&NodeId::new(node)),
            "node {node} is not hosted by this process"
        );
        CausalHandle {
            inner: Arc::clone(&self.inner),
            node: NodeId::new(node),
        }
    }

    /// Handles for every locally-hosted node, in node order (all nodes for
    /// an in-process cluster).
    #[must_use]
    pub fn handles(&self) -> Vec<CausalHandle<V>> {
        let mut local = self.inner.local.clone();
        local.sort_unstable();
        local
            .into_iter()
            .map(|id| self.handle(id.index() as u32))
            .collect()
    }

    /// The cluster's configuration.
    #[must_use]
    pub fn config(&self) -> &CausalConfig<V> {
        &self.inner.config
    }

    /// Per-(node, kind) protocol message counters.
    #[must_use]
    pub fn messages(&self) -> &NetStats {
        self.inner.net.messages()
    }

    /// Per-(node, kind) approximate byte counters.
    #[must_use]
    pub fn bytes(&self) -> &NetStats {
        self.inner.net.bytes()
    }

    /// Per-(node, kind) **physical envelope** counters. Without transport
    /// batching this mirrors [`CausalCluster::messages`]; with batching on,
    /// a coalesced run counts once here (kind `BATCH`) while its parts
    /// still count individually in the logical counters — so
    /// `messages - envelopes` per node is exactly the coalescing win.
    #[must_use]
    pub fn envelopes(&self) -> &NetStats {
        self.inner.net.envelopes()
    }

    /// Per-(node, kind) **causal-metadata** byte counters: the exact wire
    /// bytes spent on vector timestamps (honoring each stamp's
    /// dense/sparse encoding). Dividing by the operation count gives the
    /// scale benches' `metadata_bytes_per_op`.
    #[must_use]
    pub fn metadata(&self) -> &NetStats {
        self.inner.net.metadata()
    }

    /// Number of node `i`'s pipelined writes whose replies are still
    /// outstanding (diagnostic; inherently racy against the server loop).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn pending_pipelined(&self, i: u32) -> usize {
        self.inner.nodes[i as usize].driver.read().in_flight()
    }

    /// Installs (or removes) a fault hook on the cluster's network.
    ///
    /// With faults active the transport may drop protocol messages, so
    /// operations can block forever unless a
    /// [`failover`](crate::CausalConfigBuilder::failover) configuration
    /// bounds their retries. Intended for fault-tolerance experiments and
    /// tests; the deterministic chaos suite lives in `dsm-faults`.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn simnet::FaultHook>>) {
        self.inner.net.set_fault_hook(hook);
    }

    /// A snapshot of node `i`'s current vector timestamp `VT_i`
    /// (observability/diagnostics). Takes only the node's shared lock.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node_vt(&self, i: u32) -> VectorClock {
        self.inner.nodes[i as usize]
            .driver
            .read()
            .state()
            .vt()
            .clone()
    }

    /// Node `i`'s incarnation number: 0 for a first life, the persisted
    /// maximum plus one after a durable recovery (see
    /// [`CausalClusterBuilder::disks`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node_incarnation(&self, i: u32) -> u32 {
        self.inner.nodes[i as usize]
            .driver
            .read()
            .state()
            .incarnation()
    }

    /// Total cache invalidations performed across all nodes (ablation
    /// metric).
    #[must_use]
    pub fn total_invalidations(&self) -> u64 {
        self.snapshot().invalidations.iter().sum()
    }

    /// A coherent observability snapshot across the cluster: every node's
    /// vector timestamp, cumulative invalidation count, and cached-page
    /// count, taking each node's (shared) lock exactly once.
    ///
    /// Prefer this over per-metric accessors in loops — a sweep over
    /// [`CausalCluster::node_vt`] and friends re-acquires every node's
    /// lock per metric.
    #[must_use]
    pub fn snapshot(&self) -> ClusterSnapshot {
        let n = self.inner.nodes.len();
        let mut snap = ClusterSnapshot {
            vts: Vec::with_capacity(n),
            invalidations: Vec::with_capacity(n),
            cached_pages: Vec::with_capacity(n),
        };
        for node in &self.inner.nodes {
            let driver = node.driver.read();
            let state = driver.state();
            snap.vts.push(state.vt().clone());
            snap.invalidations.push(state.invalidation_count());
            snap.cached_pages.push(state.cached_pages());
        }
        snap
    }

    /// Stops all server threads and tickers and waits for them to exit.
    /// Subsequent remote operations on handles fail with
    /// [`MemoryError::Shutdown`].
    ///
    /// Returns promptly: tickers are woken out of their interval wait
    /// rather than finishing it (regression-tested in
    /// `tests/failover.rs`).
    pub fn shutdown(&self) {
        // Drop the stop latches before looking at the thread roster: an
        // inline-transport cluster may have no threads at all, and its
        // transport learns the engine is gone through its latch (in
        // [`InlineServer::deliver`]).
        self.inner.stops.lock().clear();
        let handles: Vec<_> = self.inner.servers.lock().drain(..).collect();
        if handles.is_empty() {
            return;
        }
        for &dst in &self.inner.local {
            // Halt is engine-internal; exclude it from protocol counts by
            // sending as the destination itself. Only locally-hosted
            // servers are halted — peers of a multi-process cluster manage
            // their own shutdown.
            let _ = self.inner.net.send(dst, dst, Msg::Halt);
        }
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl<V: Value> Drop for CausalCluster<V> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<V: Value> std::fmt::Debug for CausalCluster<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CausalCluster")
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

/// Per-node observability metrics captured in one pass by
/// [`CausalCluster::snapshot`]; index `i` is node `i`.
#[derive(Clone, Debug)]
pub struct ClusterSnapshot {
    /// Each node's vector timestamp `VT_i` at snapshot time.
    pub vts: Vec<VectorClock>,
    /// Each node's cumulative cache-invalidation count.
    pub invalidations: Vec<u64>,
    /// Each node's current number of cached (non-owned) pages `|C_i|`.
    pub cached_pages: Vec<usize>,
}

/// A per-process handle onto a [`CausalCluster`]; implements
/// [`SharedMemory`].
///
/// Handles are cheap to clone. All operations through handles for the same
/// node are serialized (program order), as the paper's process model
/// requires.
pub struct CausalHandle<V: Value> {
    inner: Arc<ClusterInner<V>>,
    node: NodeId,
}

impl<V: Value> Clone for CausalHandle<V> {
    fn clone(&self) -> Self {
        CausalHandle {
            inner: Arc::clone(&self.inner),
            node: self.node,
        }
    }
}

impl<V: Value> std::fmt::Debug for CausalHandle<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CausalHandle({})", self.node)
    }
}

impl<V: Value> CausalHandle<V> {
    fn check_bounds(&self, loc: Location) -> Result<(), MemoryError> {
        let namespace = self.inner.config.locations() as usize;
        if loc.index() >= namespace {
            return Err(MemoryError::OutOfRange { loc, namespace });
        }
        Ok(())
    }

    fn shared(&self) -> &NodeShared<V> {
        &self.inner.nodes[self.node.index()]
    }

    /// Submits `op` to the node's driver and parks until it completes.
    /// Caller holds the operation lock.
    fn submit(&self, op: NodeOp<V>) -> Result<Done<V>, MemoryError> {
        let node = self.shared();
        let now = self.inner.clock.now();
        let mut driver = node.driver.write();
        let fx = driver.submit(now, op);
        let (done, sent) = node.commit(driver, self.node, &self.inner.net, fx);
        if !sent {
            // A failed send means the network has shut down, which is
            // terminal for the session: no reply will ever arrive.
            node.driver.write().abandon();
            return Err(MemoryError::Shutdown);
        }
        match done {
            Some(done) => done,
            None => node.done.recv().unwrap_or(Err(MemoryError::Shutdown)),
        }
    }

    /// Records an operation, building the record only if a recorder is
    /// installed — so unrecorded clusters never deep-copy values just to
    /// throw the copy away.
    fn record_with(&self, op: impl FnOnce() -> OpRecord<V>) {
        if let Some(rec) = &self.inner.recorder {
            rec.record(self.node, op());
        }
    }

    /// Performs a write and reports whether it survived concurrent-write
    /// resolution (always applied under [`crate::WritePolicy::LastArrival`];
    /// may be rejected under [`crate::WritePolicy::OwnerFavored`], §4.2).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Shutdown`] if the cluster has stopped,
    /// [`MemoryError::OutOfRange`] for locations outside the namespace, or
    /// [`MemoryError::Timeout`] once a
    /// [`failover`](crate::CausalConfigBuilder::failover) retry budget is
    /// spent.
    pub fn write_resolved(&self, loc: Location, value: V) -> Result<WriteDone, MemoryError> {
        self.check_bounds(loc)?;
        let node = self.shared();
        // One Arc wraps the value; the protocol moves pointers from here
        // on (install, request, reply repair) — no deep copies.
        let value = Arc::new(value);
        // Fast path: an owner-local write on an idle pipeline is one
        // atomic step with no message and no outstanding reply, so the
        // operation lock adds nothing. Skipped when a recorder is
        // installed: recording flattens a node's handles into one program
        // order, which only the operation lock provides.
        if self.inner.recorder.is_none() && node.driver.read().state().owns(loc) {
            let mut driver = node.driver.write();
            if let Some(fx) = driver.write_local(loc, Arc::clone(&value)) {
                if let (Some(Ok(Done::Wrote(done))), _) =
                    node.commit(driver, self.node, &self.inner.net, fx)
                {
                    return Ok(done);
                }
                unreachable!("a local write completes at once");
            }
        }
        let _op = node.op_lock.lock();
        let Done::Wrote(done) = self.submit(NodeOp::Write(loc, Arc::clone(&value)))? else {
            unreachable!("a write completes as a write")
        };
        self.record_with(|| OpRecord::write(loc, (*value).clone(), done.wid()));
        Ok(done)
    }

    /// Performs a write through the **bounded write pipeline**: up to
    /// [`pipeline_window`](crate::CausalConfigBuilder::pipeline_window)
    /// writes to the same owner may be in flight at once, the window
    /// exerting backpressure when full. Pipelined writes preserve
    /// Definition-2 causal correctness: the pipeline drains automatically
    /// before any operation that could export or observe the in-flight
    /// increments — an owner-local write, a remote write to a *different*
    /// owner, or a read miss on a page the pipeline's owner serves (the
    /// read-your-own-write case). Operations proven safe to overlap —
    /// further pipelined writes to the same owner, cache-hit reads, and
    /// read misses toward other owners — proceed without waiting. Under
    /// failover each pipelined write travels stamped and is retried on
    /// its own.
    ///
    /// With a window of `0` this is exactly the blocking protocol write.
    /// With [`batching`](crate::CausalConfigBuilder::batching) enabled,
    /// the first write of a burst ships at once and the writes issued
    /// during its round trip coalesce into one [`Msg::Batch`] envelope
    /// when the wire drains; the owner sweeps its cache once per batch,
    /// and the write acks ride back in a single reply envelope.
    ///
    /// Call [`CausalHandle::flush`] to wait for all in-flight writes.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Shutdown`] if the cluster has stopped,
    /// [`MemoryError::OutOfRange`] for locations outside the namespace,
    /// or [`MemoryError::Timeout`] once a failover retry budget is spent.
    pub fn write_pipelined(&self, loc: Location, value: V) -> Result<WriteId, MemoryError> {
        self.check_bounds(loc)?;
        let value = Arc::new(value);
        let _op = self.shared().op_lock.lock();
        let Done::Wrote(done) = self.submit(NodeOp::WritePipelined(loc, Arc::clone(&value)))?
        else {
            unreachable!("a write completes as a write")
        };
        self.record_with(|| OpRecord::write(loc, (*value).clone(), done.wid()));
        Ok(done.wid())
    }

    /// Write barrier: sends anything still buffered and blocks until the
    /// reply to every pipelined write has been received and absorbed
    /// into `VT_i`. A no-op when nothing is outstanding.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Shutdown`] if the cluster stops first.
    pub fn flush(&self) -> Result<(), MemoryError> {
        let _op = self.shared().op_lock.lock();
        self.submit(NodeOp::Flush).map(drop)
    }

    /// A read that returns the value **shared** with local memory
    /// (`Arc<V>`), never deep-copying it. [`SharedMemory::read`] is this
    /// plus one clone to meet its by-value signature.
    ///
    /// Cache hits are the protocol's steady state and take only the
    /// node's shared lock — concurrent readers of a node proceed in
    /// parallel, and no hit ever contends with the `op_lock` of a blocked
    /// remote operation. (With a recorder installed, hits take the
    /// `op_lock` too: recording flattens a node's threads into a single
    /// program order, which needs the total order the lock provides.)
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Shutdown`] if the cluster has stopped,
    /// [`MemoryError::OutOfRange`] for locations outside the namespace, or
    /// [`MemoryError::Timeout`] once a failover retry budget is spent.
    pub fn read_shared(&self, loc: Location) -> Result<Arc<V>, MemoryError> {
        self.read_full(loc).map(|(value, _)| value)
    }

    fn read_full(&self, loc: Location) -> Result<(Arc<V>, WriteId), MemoryError> {
        self.check_bounds(loc)?;
        if self.inner.recorder.is_none() {
            if let Some(hit) = self.shared().driver.read().state().read_hit(loc) {
                return Ok(hit);
            }
        }
        self.read_op(NodeOp::Read(loc))
    }

    /// Runs a read through the driver under the operation lock.
    fn read_op(&self, op: NodeOp<V>) -> Result<(Arc<V>, WriteId), MemoryError> {
        let (NodeOp::Read(loc) | NodeOp::ReadFresh(loc)) = op else {
            unreachable!("only reads come here")
        };
        let _op = self.shared().op_lock.lock();
        let Done::Read { value, wid } = self.submit(op)? else {
            unreachable!("a read completes as a read")
        };
        self.record_with(|| OpRecord::read(loc, (*value).clone(), wid));
        Ok((value, wid))
    }
}

impl<V: Value> SharedMemory<V> for CausalHandle<V> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn read(&self, loc: Location) -> Result<V, MemoryError> {
        self.read_full(loc).map(|(value, _)| (*value).clone())
    }

    fn write(&self, loc: Location, value: V) -> Result<(), MemoryError> {
        self.write_resolved(loc, value).map(|_| ())
    }

    fn discard(&self, loc: Location) {
        if loc.index() >= self.inner.config.locations() as usize {
            return;
        }
        let _op = self.shared().op_lock.lock();
        let _ = self.submit(NodeOp::Discard(loc));
    }

    /// One driver operation, so the discard happens after any pipeline
    /// drain the read needs (a drain's absorbed replies could repair the
    /// discarded copy).
    fn read_fresh(&self, loc: Location) -> Result<V, MemoryError> {
        self.check_bounds(loc)?;
        self.read_op(NodeOp::ReadFresh(loc))
            .map(|(value, _)| (*value).clone())
    }

    fn read_tagged(&self, loc: Location) -> Result<(V, Option<WriteId>), MemoryError> {
        self.read_full(loc)
            .map(|(value, wid)| ((*value).clone(), Some(wid)))
    }

    fn write_tagged(&self, loc: Location, value: V) -> Result<Option<WriteId>, MemoryError> {
        self.write_resolved(loc, value).map(|done| Some(done.wid()))
    }
}
