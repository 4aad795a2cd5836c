//! One process's slice of a multi-process causal-memory cluster.
//!
//! [`NetCluster::start`] glues the pieces together: a [`TcpMesh`] to the
//! peers, a partial [`Network`] that hands off-process envelopes to the
//! mesh, and a [`CausalCluster`] hosting only this node — built in
//! *inline* mode, so the mesh's poller thread runs the Figure-4 server
//! loop itself (`InlineSink`) instead of feeding a separate server
//! thread through a mailbox. The protocol is byte-for-byte the
//! in-process one — same `Msg` codec, same Figure-4 serve steps — which
//! is the point: the transport is swappable under an unchanged protocol.

use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::time::Duration;

use causal_dsm::{CausalCluster, CausalHandle, DirDisk, Disk, DurableConfig, InlineServer, Msg};
use crossbeam_channel::Receiver;
use memcore::{NodeId, Recorder};
use simnet::{Envelope, Network};

use crate::mesh::{CtrlConn, EnvelopeSink, SinkClosed, TcpMesh, WireStats};
use crate::spec::ClusterSpec;

/// The poller-side envelope sink: every decoded inbound envelope is
/// served by the engine's [`InlineServer`] on the poller thread itself.
/// One request costs one thread wake-up instead of two (poller decodes
/// *and* serves), and the process runs no per-node engine thread at all.
struct InlineSink {
    server: InlineServer<Payload>,
    nodes: usize,
    me: NodeId,
}

impl EnvelopeSink<Msg<Payload>> for InlineSink {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn hosts(&self, dst: NodeId) -> bool {
        dst == self.me
    }

    fn deliver(&self, env: Envelope<Msg<Payload>>) -> Result<(), SinkClosed> {
        self.server.deliver(env).map_err(|_| SinkClosed)
    }
}

/// The value type multi-process clusters share: raw bytes, so the load
/// harness controls payload size exactly.
pub type Payload = Vec<u8>;

/// Binds `addr` for listening with `SO_REUSEADDR` set, so a restarted
/// server can reclaim its fixed port while connections of its previous
/// life still sit in TIME_WAIT (a plain `TcpListener::bind` refuses
/// with `EADDRINUSE` for up to a minute). Non-IPv4 addresses fall back
/// to a plain bind.
///
/// # Errors
///
/// Propagates resolution and bind failures.
pub fn bind_reusable(addr: &str) -> io::Result<TcpListener> {
    use std::net::{SocketAddr, ToSocketAddrs};
    let mut last = None;
    for sa in addr.to_socket_addrs()? {
        let attempt = match sa {
            SocketAddr::V4(v4) => polling::sockopt::listen_reusable(v4),
            SocketAddr::V6(_) => TcpListener::bind(sa),
        };
        match attempt {
            Ok(listener) => return Ok(listener),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{addr}: no usable address"),
        )
    }))
}

/// A causal-memory node wired to its peers over TCP.
pub struct NetCluster {
    cluster: CausalCluster<Payload>,
    mesh: TcpMesh<Msg<Payload>>,
    me: NodeId,
}

impl NetCluster {
    /// Brings up this node: binds nothing itself — `listener` must
    /// already be bound to `spec.addr(me)` — establishes the mesh,
    /// and starts the engine for `me` only.
    ///
    /// Blocks until every peer is connected or `timeout` expires.
    ///
    /// # Errors
    ///
    /// Propagates mesh-establishment failures (unreachable peers,
    /// handshake mismatches, timeout).
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `spec` or the engine rejects
    /// the configuration (a bug).
    pub fn start(
        spec: &ClusterSpec,
        me: NodeId,
        listener: TcpListener,
        recorder: Option<Recorder<Payload>>,
        timeout: Duration,
    ) -> io::Result<Self> {
        Self::bring_up(spec, me, listener, recorder, timeout, None)
    }

    /// [`NetCluster::start`] plus a write-ahead log under `data_dir`
    /// (created if absent) — what `dsm-server --data-dir` builds.
    ///
    /// A directory that already holds state makes the node *recover*:
    /// its page images, origin clocks, and owner epochs are replayed
    /// from the checkpoint and log tail, and the node rejoins as a full
    /// peer under a bumped incarnation, which the mesh's session layer
    /// announces so peers fence the previous life's frames. The sync
    /// policy is `every_op`: a write is certified (and its reply sent)
    /// only once the WAL frame is synced, so a `kill -9` loses nothing
    /// that was acknowledged.
    ///
    /// # Errors
    ///
    /// Propagates mesh-establishment failures and `data_dir` I/O errors.
    ///
    /// # Panics
    ///
    /// Same conditions as [`NetCluster::start`].
    pub fn start_durable(
        spec: &ClusterSpec,
        me: NodeId,
        listener: TcpListener,
        recorder: Option<Recorder<Payload>>,
        timeout: Duration,
        data_dir: &Path,
    ) -> io::Result<Self> {
        Self::bring_up(spec, me, listener, recorder, timeout, Some(data_dir))
    }

    fn bring_up(
        spec: &ClusterSpec,
        me: NodeId,
        listener: TcpListener,
        recorder: Option<Recorder<Payload>>,
        timeout: Duration,
        data_dir: Option<&Path>,
    ) -> io::Result<Self> {
        let mesh = TcpMesh::establish(me, spec, listener, timeout)?;
        let net: Network<Msg<Payload>> =
            Network::partial(spec.nodes() as usize, &[me], mesh.link());
        // The spec's transport knobs select the engine's send shape too:
        // a pipeline window lets writes overlap, and batching seals the
        // window's messages into Msg::Batch envelopes — which the mesh
        // then carries in single writev calls.
        let mut builder = CausalCluster::<Payload>::builder(spec.nodes(), spec.locations())
            .configure(|c| {
                let c = c
                    .pipeline_window(spec.net().pipeline)
                    .batching(spec.net().batching);
                if data_dir.is_some() {
                    c.durability(DurableConfig::default())
                } else {
                    c
                }
            })
            .transport(net, &[me]);
        if let Some(rec) = recorder {
            builder = builder.recorder(rec);
        }
        if let Some(dir) = data_dir {
            let disk: Box<dyn Disk> = Box::new(DirDisk::open(dir)?);
            builder = builder.disks(vec![(me, disk)]);
        }
        // Engine before poller: inbound frames that arrive in the gap sit
        // in the kernel's socket buffers (the same window they'd spend in
        // a mailbox) until the poller starts and serves them.
        let (cluster, server) = builder
            .build_inline()
            .expect("engine rejected configuration");
        if data_dir.is_some() {
            // The sessions must speak for the recovered life before any
            // frame leaves: peers fence on the incarnation.
            mesh.set_incarnation(cluster.node_incarnation(me.index() as u32));
        }
        mesh.start(InlineSink {
            server,
            nodes: spec.nodes() as usize,
            me,
        });
        Ok(NetCluster { cluster, mesh, me })
    }

    /// This node's incarnation: 0 for a first life, the persisted
    /// maximum plus one after a durable recovery.
    #[must_use]
    pub fn incarnation(&self) -> u32 {
        self.cluster.node_incarnation(self.me.index() as u32)
    }

    /// The node this process hosts.
    #[must_use]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// An operation handle for the local node.
    #[must_use]
    pub fn handle(&self) -> CausalHandle<Payload> {
        self.cluster.handle(self.me.index() as u32)
    }

    /// The local engine (message counters, configuration, …).
    #[must_use]
    pub fn cluster(&self) -> &CausalCluster<Payload> {
        &self.cluster
    }

    /// Control connections accepted on this node's listener.
    #[must_use]
    pub fn ctrl_conns(&self) -> &Receiver<CtrlConn> {
        self.mesh.ctrl_conns()
    }

    /// Wire-level counters of this node's mesh endpoint (frames,
    /// syscalls, retransmissions, reconnects).
    #[must_use]
    pub fn wire_stats(&self) -> WireStats {
        self.mesh.wire_stats()
    }

    /// Mesh threads this endpoint owns — O(1) in cluster size (an
    /// acceptor and a poller), regardless of peer count.
    #[must_use]
    pub fn mesh_thread_count(&self) -> usize {
        self.mesh.thread_count()
    }

    /// Chaos hook: hard-drops the socket toward `peer`, as if the link
    /// failed. With `reconnect on` in the spec the mesh heals itself.
    pub fn sever(&self, peer: NodeId) {
        self.mesh.sever(peer);
    }

    /// Stops the local engine, then tears the mesh down.
    ///
    /// Engine first: raising its stop flag turns the poller's inline
    /// deliveries into no-ops, so the mesh teardown that follows races
    /// with nothing. The poller exiting drops the `InlineSink` — and
    /// with it the engine's reply channel, which is what fails any
    /// application operation still blocked on a remote owner.
    pub fn shutdown(self) {
        self.cluster.shutdown();
        self.mesh.shutdown();
    }
}
