//! `inproc_mixed`: the in-process threaded `CausalCluster` in its default
//! Figure-4 configuration, driven by one closed-loop thread that issues
//! each scripted op on the op's node and waits for it to return.
//!
//! Why: it is the only workload on the mailbox/server-thread engine and
//! the in-process channel; read misses, owner round trips and
//! invalidation sweeps dominate, and with one client thread its message bill is
//! an exact function of the seed.

use std::time::{Duration, Instant};

use causal_dsm::{CausalCluster, CausalConfig};
use causal_spec::Execution;
use memcore::{Recorder, SharedMemory};

use crate::alloc;
use crate::layers;
use crate::replay::{replay, ReplayOp};
use crate::report::{rounds, Run};
use crate::script::MixedScript;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

const NODES: u32 = 4;
const LOCATIONS: u32 = 64;
const READ_PCT: u32 = 70;
/// Ops per round; every round replays the same script on a fresh cluster.
const ROUND_OPS: usize = 8192;
const SALT: u64 = 0x1A9C_0001;

type Val = Vec<u8>;

fn script(seed: u64) -> MixedScript {
    MixedScript::draw(NODES, LOCATIONS, ROUND_OPS, READ_PCT, seed, SALT)
}

/// One round's measurements.
struct Round {
    setup_ns: u64,
    elapsed_ns: u64,
    /// Issue-to-return ns of each scripted op.
    lat: Vec<u64>,
    failed: u64,
    msgs: u64,
    bytes: u64,
    envelopes: u64,
    invalidations: u64,
}

/// Draws the script and builds a fresh cluster (the set-up), then runs the
/// script through it (the timed region).
fn round(seed: u64, recorder: Option<Recorder<Val>>, mut tracer: Option<&mut Tracer>) -> Round {
    let t0 = Instant::now();
    let script = script(seed);
    let mut builder = CausalCluster::<Val>::builder(NODES, LOCATIONS);
    if let Some(rec) = recorder {
        builder = builder.recorder(rec);
    }
    let cluster = builder.build().expect("default configuration builds");
    let handles = cluster.handles();
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let mut lat = Vec::with_capacity(script.steps.len());
    let mut failed = 0;
    let start = Instant::now();
    for (i, s) in script.steps.iter().enumerate() {
        let h = &handles[s.node as usize];
        let span = tracer.as_deref_mut().map(|t| {
            t.open(
                if s.read {
                    "core.handle.read"
                } else {
                    "core.handle.write"
                },
                i as u64,
                None,
            )
        });
        let t = Instant::now();
        let ok = if s.read {
            h.read(s.loc).map(|v| drop(std::hint::black_box(v))).is_ok()
        } else {
            h.write(s.loc, script.value(i).clone()).is_ok()
        };
        lat.push(t.elapsed().as_nanos() as u64);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
        }
        failed += u64::from(!ok);
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let out = Round {
        setup_ns,
        elapsed_ns,
        lat,
        failed,
        msgs: cluster.messages().snapshot().total(),
        bytes: cluster.bytes().snapshot().total(),
        envelopes: cluster.envelopes().snapshot().total(),
        invalidations: cluster.total_invalidations(),
    };
    cluster.shutdown();
    out
}

/// Runs the workload for `budget`; with `traced`, also the per-layer
/// measurements.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Run {
    let mut run = Run::default();
    let script = script(seed);
    let ops = ReplayOp::from_script(&script);
    let config = CausalConfig::<Val>::builder(NODES, LOCATIONS).build();
    // The seed's exact bill, from the single-threaded replay.
    let expected = replay(&config, &ops, 0, None);
    let mut tracer = Tracer::new();
    let mut replay_spans = None;
    rounds(crate::WARMUP, 1, |_| drop(round(seed, None, None)));

    let timed = if traced { budget.mul_f64(0.35) } else { budget };
    let untraced_rate = measure(&mut run, seed, &expected, timed);
    if traced {
        let before = alloc::allocs();
        alloc::set_counting(true);
        let ops_before = run.ops;
        let mut engine_remote_reads: Vec<u64> = Vec::new();
        let mut invalidations = 0u64;
        let mut envelopes = 0u64;
        let mut traced_rates = Vec::new();
        rounds(timed, 2, |_| {
            let r = round(seed, None, Some(&mut tracer));
            account(&mut run, &r, &expected);
            traced_rates.push(rate(&r));
            invalidations += r.invalidations;
            envelopes += r.envelopes;
            for (i, &ns) in r.lat.iter().enumerate() {
                if script.steps[i].read && expected.remote[i] {
                    engine_remote_reads.push(ns);
                }
            }
        });
        alloc::set_counting(false);
        let traced_ops = (run.ops - ops_before).max(1) as f64;
        let traced_rate = median(&traced_rates).unwrap_or(f64::NAN);
        run.layer(
            "core.allocs_per_op",
            (alloc::allocs() - before) as f64 / traced_ops,
            "allocs/op",
        );
        run.layer(
            "core.state.invalidations_per_op",
            invalidations as f64 / traced_ops,
            "1/op",
        );
        run.layer(
            "simnet.envelopes_per_op",
            envelopes as f64 / traced_ops,
            "env/op",
        );
        run.layer(
            "trace.overhead_ratio",
            1.0 - traced_rate / untraced_rate,
            "ratio",
        );
        let (remote_read_ns, spans) =
            layers::replay_layers(&mut run, &config, &ops, 0, &mut tracer);
        replay_spans = Some(spans);
        engine_remote_reads.sort_unstable();
        let engine_ns = percentile(&engine_remote_reads, 0.5).map_or(f64::NAN, |v| v as f64);
        run.layer("core.engine.wait_ns", engine_ns - remote_read_ns, "ns");
        eprintln!(
            "inproc_mixed remote read: engine p50 {engine_ns:.0} ns = replay state+transport {remote_read_ns:.0} ns + wait {:.0} ns (n={})",
            engine_ns - remote_read_ns,
            engine_remote_reads.len()
        );
    }
    twin(&mut run, seed, &expected, traced.then_some(&mut tracer));
    if traced {
        let tracers: Vec<Tracer> = std::iter::once(tracer).chain(replay_spans).collect();
        crate::write_trace("inproc_mixed", seed, &tracers);
    }
    run
}

fn rate(r: &Round) -> f64 {
    (r.lat.len() as u64 - r.failed) as f64 / (r.elapsed_ns.max(1) as f64 / 1e9)
}

/// Folds one round into the run and checks its bill against the seed's.
fn account(run: &mut Run, r: &Round, expected: &crate::replay::Replay<Val>) {
    let n = r.lat.len() as u64;
    run.attempted += n;
    run.failed += r.failed;
    run.ops += n - r.failed;
    run.msgs += r.msgs;
    run.wire_bytes += r.bytes;
    if r.msgs != expected.msgs || r.bytes != expected.bytes {
        run.reject(
            n,
            format!(
                "inproc_mixed bill {} msgs/{} B differs from the seed's {} msgs/{} B",
                r.msgs, r.bytes, expected.msgs, expected.bytes
            ),
        );
    }
}

/// Untraced rounds for `budget`; returns the median round throughput.
fn measure(
    run: &mut Run,
    seed: u64,
    expected: &crate::replay::Replay<Val>,
    budget: Duration,
) -> f64 {
    let mut rates = Vec::new();
    let script = script(seed);
    rounds(budget, 3, |_| {
        let r = round(seed, None, None);
        account(run, &r, expected);
        run.setup_s.push(r.setup_ns as f64 / 1e9);
        run.timed_rounds
            .push((r.lat.len() as u64 - r.failed, r.elapsed_ns));
        rates.push(rate(&r));
        for (i, &ns) in r.lat.iter().enumerate() {
            if script.steps[i].read {
                run.reads.push(ns);
            } else {
                run.writes.push(ns);
            }
        }
    });
    median(&rates).unwrap_or(f64::NAN)
}

/// The recorded twin: a recorder disables the engine's read-hit and
/// owner-local fast paths, so the timed rounds run unrecorded and an
/// identically seeded recorded round, outside any timed region, is what
/// the oracle certifies. Its bill must equal the seed's exactly.
fn twin(
    run: &mut Run,
    seed: u64,
    expected: &crate::replay::Replay<Val>,
    tracer: Option<&mut Tracer>,
) {
    let recorder = Recorder::new(NODES as usize);
    let r = round(seed, Some(recorder.clone()), None);
    if r.failed > 0 || r.msgs != expected.msgs || r.bytes != expected.bytes {
        run.reject(
            run.attempted,
            format!(
                "recorded twin: {} failed ops, bill {} msgs/{} B against the seed's {} msgs/{} B",
                r.failed, r.msgs, r.bytes, expected.msgs, expected.bytes
            ),
        );
    }
    let exec = Execution::from_recorder(&recorder);
    let traced = tracer.is_some();
    alloc::set_counting(traced);
    let cost = layers::certify(&exec, tracer, 0);
    alloc::set_counting(false);
    if !cost.correct {
        run.reject(
            run.attempted,
            "recorded twin: check_causal rejected the history".into(),
        );
    }
    if traced {
        let n = exec.iter_ops().count().max(1) as f64;
        run.layer("spec.graph_build_ns_per_op", cost.graph_ns as f64 / n, "ns");
        run.layer("spec.check_ns_per_op", cost.check_ns as f64 / n, "ns");
        run.layer("spec.peak_bytes", cost.peak_bytes as f64, "B");
    }
}
