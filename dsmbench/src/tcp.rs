//! `tcp_pipelined_writes` and `tcp_durable_writes`: a 2-node `dsm-net`
//! cluster over loopback TCP in one process — the `dsm-server` engine,
//! each node behind `NetCluster::start` — with 80% writes, `pipeline 32`
//! and `batching on`, and one closed-loop client thread per node.
//!
//! Why `tcp_pipelined_writes`: it exercises writes beside
//! `inproc_mixed`'s reads, over the real-socket path (epoll poller, `Wire`
//! framing, `writev` batching, inline serving, pipeline drains).
//!
//! Why `tcp_durable_writes`: the same script and options with each node on
//! `NetCluster::start_durable` over a fresh directory, which syncs its WAL
//! on every op. It is the only workload with WAL append and fsync on the
//! blocking path; its difference from `tcp_pipelined_writes` isolates the
//! durability layer.
//!
//! The histories are recorded in the timed region (the concurrent
//! interleaving of two client threads is not reproducible, so there is no twin)
//! and every round's history must pass `check_causal`.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use causal_dsm::CausalConfig;
use causal_spec::Execution;
use dsm_net::{ClusterSpec, NetCluster, NetOptions, WireStats};
use memcore::{NodeId, OwnerMap as _, Recorder, SharedMemory};

use crate::alloc;
use crate::layers;
use crate::replay::ReplayOp;
use crate::report::{rounds, Run};
use crate::script::MixedScript;
use crate::stats::median;
use crate::trace::Tracer;

const NODES: u32 = 2;
const LOCATIONS: u32 = 64;
const READ_PCT: u32 = 20;
const PIPELINE: u32 = 32;
const SALT: u64 = 0x1A9C_0002;
/// Fewest bring-ups an untraced run takes its set-up median over.
const MIN_SETUPS: usize = 100;
/// How long mesh bring-up may take before the round fails.
const ESTABLISH: Duration = Duration::from_secs(10);

type Val = Vec<u8>;

/// Ops per round. Durable rounds are shorter so that no node reaches the
/// store's checkpoint threshold within a round, and the WAL on disk is
/// every record the round appended.
fn round_ops(durable: bool) -> usize {
    if durable {
        4096
    } else {
        8192
    }
}

fn config() -> CausalConfig<Val> {
    CausalConfig::<Val>::builder(NODES, LOCATIONS).build()
}

/// Every op targets a location the peer owns. With two nodes, uniform
/// targets split ops about evenly between owner-local ones (sub-µs) and
/// socket round trips (tens of µs), which put the read and write medians
/// on the cliff between the two; peer-owned targets make every op take
/// the socket path this workload exists to measure.
fn script(seed: u64, durable: bool) -> MixedScript {
    let config = config();
    let owners: Vec<u32> = (0..LOCATIONS)
        .map(|l| config.owners().owner_of(memcore::Location::new(l)).index() as u32)
        .collect();
    MixedScript::draw_with(
        NODES,
        LOCATIONS,
        round_ops(durable),
        READ_PCT,
        seed,
        SALT,
        Some(&owners),
    )
}

/// One node client thread's measurements.
#[derive(Default)]
struct NodeOut {
    reads: Vec<u64>,
    writes: Vec<u64>,
    failed: u64,
    ops: u64,
    msgs: u64,
    envelopes: u64,
    invalidations: u64,
    wire: WireStats,
    flush_ns: u64,
    tracer: Option<Tracer>,
}

/// One round's measurements.
struct Round {
    setup_ns: u64,
    elapsed_ns: u64,
    nodes: Vec<NodeOut>,
    exec: Execution<Val>,
}

impl Round {
    fn ops(&self) -> u64 {
        self.nodes.iter().map(|n| n.ops).sum()
    }
    fn failed(&self) -> u64 {
        self.nodes.iter().map(|n| n.failed).sum()
    }
}

/// Runs node `me`'s slice of the script through its handle.
fn drive(cluster: &NetCluster, me: u32, script: &MixedScript, traced: bool) -> NodeOut {
    let h = cluster.handle();
    let mut out = NodeOut {
        tracer: traced.then(Tracer::new),
        ..NodeOut::default()
    };
    for (i, s) in script.steps.iter().enumerate() {
        if s.node != me {
            continue;
        }
        let name = if s.read {
            "core.handle.read"
        } else {
            "core.handle.write_pipelined"
        };
        let span = out.tracer.as_mut().map(|t| t.open(name, i as u64, None));
        let t = Instant::now();
        let ok = if s.read {
            h.read(s.loc).map(|v| drop(std::hint::black_box(v))).is_ok()
        } else {
            h.write_pipelined(s.loc, script.value(i).clone()).is_ok()
        };
        let ns = t.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (out.tracer.as_mut(), span) {
            t.close(id);
        }
        if s.read {
            out.reads.push(ns);
        } else {
            out.writes.push(ns);
        }
        out.ops += 1;
        out.failed += u64::from(!ok);
    }
    let span = out
        .tracer
        .as_mut()
        .map(|t| t.open("core.handle.flush", u64::MAX, None));
    let t = Instant::now();
    if h.flush().is_err() {
        out.failed += 1;
    }
    out.flush_ns = t.elapsed().as_nanos() as u64;
    if let (Some(t), Some(id)) = (out.tracer.as_mut(), span) {
        t.close(id);
    }
    out
}

/// Brings up a fresh 2-node cluster (the set-up: sockets, mesh, and for a
/// durable round fresh WAL directories), runs the script with one client
/// thread per node (the timed region), and tears the cluster down.
fn round(
    seed: u64,
    dirs: Option<&[PathBuf]>,
    traced: bool,
    run_ops: bool,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let script = script(seed, dirs.is_some());
    let listeners: Vec<TcpListener> = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bind loopback: {e}"))?;
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("local addr: {e}"))?;
    let spec = ClusterSpec::new(LOCATIONS, addrs).with_net(NetOptions {
        pipeline: PIPELINE,
        batching: true,
        ..NetOptions::default()
    });
    let recorder: Recorder<Val> = Recorder::new(NODES as usize);
    // The main thread joins both barriers: the first ends the set-up, the
    // second the timed region (no node tears down while its peer still
    // has owner round trips outstanding).
    let go = Barrier::new(NODES as usize + 1);
    let done = Barrier::new(NODES as usize + 1);
    let (setup_ns, elapsed_ns, nodes) = thread::scope(|s| {
        let workers: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let (spec, recorder, script) = (&spec, recorder.clone(), &script);
                let (go, done) = (&go, &done);
                s.spawn(move || {
                    let me = NodeId::new(i as u32);
                    let started = match dirs {
                        None => NetCluster::start(spec, me, listener, Some(recorder), ESTABLISH),
                        Some(d) => NetCluster::start_durable(
                            spec,
                            me,
                            listener,
                            Some(recorder),
                            ESTABLISH,
                            &d[i],
                        ),
                    };
                    go.wait();
                    let out = started.as_ref().ok().map(|c| {
                        if run_ops {
                            drive(c, i as u32, script, traced)
                        } else {
                            NodeOut::default()
                        }
                    });
                    done.wait();
                    let cluster = started.map_err(|e| format!("node {i} bring-up: {e}"))?;
                    let mut out = out.expect("a started node was driven");
                    out.msgs = cluster.cluster().messages().snapshot().total();
                    out.envelopes = cluster.cluster().envelopes().snapshot().total();
                    out.invalidations = cluster.cluster().total_invalidations();
                    out.wire = cluster.wire_stats();
                    cluster.shutdown();
                    Ok::<NodeOut, String>(out)
                })
            })
            .collect();
        go.wait();
        let setup_ns = t0.elapsed().as_nanos() as u64;
        let start = Instant::now();
        done.wait();
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let nodes: Vec<Result<NodeOut, String>> = workers
            .into_iter()
            .map(|w| w.join().expect("node client thread panicked"))
            .collect();
        (setup_ns, elapsed_ns, nodes)
    });
    Ok(Round {
        setup_ns,
        elapsed_ns,
        nodes: nodes.into_iter().collect::<Result<_, _>>()?,
        exec: Execution::from_recorder(&recorder),
    })
}

/// Fresh per-node WAL directories for round `k` under `work`.
fn round_dirs(work: &Path, k: usize) -> Vec<PathBuf> {
    (0..NODES)
        .map(|i| work.join(format!("r{k}")).join(format!("n{i}")))
        .collect()
}

/// Removes a durable round's directories.
fn remove_round(dirs: Option<&[PathBuf]>) {
    if let Some(parent) = dirs.and_then(|d| d[0].parent()) {
        let _ = std::fs::remove_dir_all(parent);
    }
}

/// Runs the workload for `budget`; `durable` names the scratch directory
/// the WAL directories are made under. With `traced`, also the per-layer
/// measurements.
pub fn run(seed: u64, budget: Duration, traced: bool, durable: Option<&Path>) -> Run {
    let name = if durable.is_some() {
        "tcp_durable_writes"
    } else {
        "tcp_pipelined_writes"
    };
    let mut run = Run::default();
    let timed = if traced { budget.mul_f64(0.35) } else { budget };
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut tracers: Vec<Tracer> = Vec::new();
    let mut tracer = Tracer::new();
    let (mut flush, mut envelopes, mut invalidations, mut wire) =
        (Vec::new(), 0u64, 0u64, WireStats::default());
    let mut spec_costs = Vec::new();
    let mut wal_bytes = 0u64;
    let mut wal = None;
    let mut traced_ops = 0u64;
    let mut allocs = 0u64;
    let mut k_all = 0usize;
    rounds(crate::WARMUP, 1, |_| {
        let dirs = durable.map(|w| round_dirs(w, k_all));
        k_all += 1;
        let _ = round(seed, dirs.as_deref(), false, true);
        remove_round(dirs.as_deref());
    });

    for phase_traced in [false, true] {
        if phase_traced && !traced {
            break;
        }
        rounds(timed, 3, |_| {
            let k = k_all;
            k_all += 1;
            let dirs = durable.map(|w| round_dirs(w, k));
            let before = alloc::allocs();
            alloc::set_counting(phase_traced);
            let r = round(seed, dirs.as_deref(), phase_traced, true);
            alloc::set_counting(false);
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    run.attempted += round_ops(durable.is_some()) as u64;
                    run.reject(
                        round_ops(durable.is_some()) as u64,
                        format!("{name} round {k}: {e}"),
                    );
                    return;
                }
            };
            let ops = r.ops();
            let rate = (ops - r.failed().min(ops)) as f64 / (r.elapsed_ns.max(1) as f64 / 1e9);
            run.attempted += ops;
            run.failed += r.failed();
            run.ops += ops - r.failed().min(ops);
            if phase_traced {
                traced_rates.push(rate);
                traced_ops += ops;
                allocs += alloc::allocs() - before;
            } else {
                rates.push(rate);
                run.setup_s.push(r.setup_ns as f64 / 1e9);
                run.timed_rounds
                    .push((ops - r.failed().min(ops), r.elapsed_ns));
            }
            for n in &r.nodes {
                run.msgs += n.msgs;
                run.wire_bytes += n.wire.bytes;
                if !phase_traced {
                    n.reads.iter().for_each(|&ns| run.reads.push(ns));
                    n.writes.iter().for_each(|&ns| run.writes.push(ns));
                } else {
                    flush.push(n.flush_ns as f64);
                    envelopes += n.envelopes;
                    invalidations += n.invalidations;
                    wire += n.wire;
                }
            }
            alloc::set_counting(phase_traced);
            let cost = layers::certify(&r.exec, phase_traced.then_some(&mut tracer), k as u64);
            alloc::set_counting(false);
            if !cost.correct {
                run.reject(
                    ops,
                    format!("{name} round {k}: check_causal rejected the history"),
                );
            }
            if phase_traced {
                spec_costs.push((cost, r.exec.iter_ops().count()));
                if let Some(dirs) = &dirs {
                    wal_bytes += dirs.iter().map(|d| wal_len(d)).sum::<u64>();
                    if wal.is_none() {
                        let scratch = dirs[0].with_file_name("append");
                        match layers::wal_cost::<Val>(&dirs[0], &scratch) {
                            Ok(c) => wal = Some(c),
                            Err(e) => run.reject(0, format!("{name}: WAL measurement failed: {e}")),
                        }
                    }
                }
                tracers.extend(r.nodes.into_iter().filter_map(|n| n.tracer));
            }
            remove_round(dirs.as_deref());
        });
    }
    // Durable rounds are few; bring-ups that run no ops top the set-up
    // sample up so its median is not set by one slow directory sync.
    let mut k = k_all;
    while !traced && run.setup_s.len() < MIN_SETUPS {
        let dirs = durable.map(|w| round_dirs(w, k));
        match round(seed, dirs.as_deref(), false, false) {
            Ok(r) => run.setup_s.push(r.setup_ns as f64 / 1e9),
            Err(e) => {
                run.reject(0, format!("{name} bring-up {k}: {e}"));
                break;
            }
        }
        remove_round(dirs.as_deref());
        k += 1;
    }

    if traced {
        let ops = traced_ops.max(1) as f64;
        let untraced = median(&rates).unwrap_or(f64::NAN);
        run.layer(
            "trace.overhead_ratio",
            1.0 - median(&traced_rates).unwrap_or(f64::NAN) / untraced,
            "ratio",
        );
        run.layer("core.allocs_per_op", allocs as f64 / ops, "allocs/op");
        run.layer("core.flush_ns", median(&flush).unwrap_or(f64::NAN), "ns");
        run.layer(
            "core.state.invalidations_per_op",
            invalidations as f64 / ops,
            "1/op",
        );
        run.layer("simnet.envelopes_per_op", envelopes as f64 / ops, "env/op");
        run.layer("net.writev_per_op", wire.writev_calls as f64 / ops, "1/op");
        run.layer(
            "net.frames_per_writev",
            wire.frames as f64 / wire.writev_calls.max(1) as f64,
            "ratio",
        );
        run.layer("net.bytes_per_op", wire.bytes as f64 / ops, "B/op");
        let n_ops: f64 = spec_costs
            .iter()
            .map(|(_, n)| *n as f64)
            .sum::<f64>()
            .max(1.0);
        run.layer(
            "spec.graph_build_ns_per_op",
            spec_costs
                .iter()
                .map(|(c, _)| c.graph_ns as f64)
                .sum::<f64>()
                / n_ops,
            "ns",
        );
        run.layer(
            "spec.check_ns_per_op",
            spec_costs
                .iter()
                .map(|(c, _)| c.check_ns as f64)
                .sum::<f64>()
                / n_ops,
            "ns",
        );
        let peaks: Vec<f64> = spec_costs
            .iter()
            .map(|(c, _)| c.peak_bytes as f64)
            .collect();
        run.layer("spec.peak_bytes", median(&peaks).unwrap_or(f64::NAN), "B");
        if let Some(c) = wal {
            run.layer("durable.append_ns", c.append_ns, "ns");
            run.layer("durable.sync_ns", c.sync_ns, "ns");
            run.layer(
                "durable.recover_ns_per_record",
                c.recover_ns_per_record,
                "ns",
            );
            run.layer("durable.wal_bytes_per_op", wal_bytes as f64 / ops, "B/op");
        }
        // The replay runs the script's ops with blocking writes: the same
        // state steps and messages per op, without the pipeline.
        let config = config();
        let ops = ReplayOp::from_script(&script(seed, durable.is_some()));
        let (_, spans) =
            layers::replay_layers(&mut run, &config, &ops, PIPELINE as usize, &mut tracer);
        tracers.push(tracer);
        tracers.push(spans);
        crate::write_trace(name, seed, &tracers);
    }
    run
}

/// Bytes of WAL records in `dir`: both files, less their 8-byte
/// generation headers.
fn wal_len(dir: &Path) -> u64 {
    ["log.wal", "checkpoint.wal"]
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .map(|m| m.len().saturating_sub(8))
        .sum()
}
