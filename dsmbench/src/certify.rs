//! `certify`: the deterministic simulator runs an 8-node, 64-location,
//! 40%-write seeded history, then `check_causal` certifies it. One
//! thread; the timed region is simulation plus certification.
//!
//! Why: the oracle and the simulator are the work here and everything
//! else sits idle, so this is the workload a faster (streaming) oracle or
//! simulator moves; the simulator is deterministic, so the message bill
//! is exact per seed.
//!
//! Read and write latency here is wall-clock issue-to-return inside the
//! simulator: the time the simulator spends, processing every node's
//! events, between a client issuing an op and the op completing.
//!
//! Every round repeats the same history, so the run reports its fastest
//! rounds ([`FastestRounds`]): the host's speed, not the work, is what
//! differs between rounds. Rounds take the allowed CPUs in turn.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use causal_dsm::{CausalConfig, CausalState};
use causal_spec::Execution;
use dsm_sim::{CausalActor, ClientOp, FnClient, Sim, SimOpts};
use memcore::{NodeId, Recorder, Word};

use crate::alloc;
use crate::host;
use crate::layers;
use crate::replay::ReplayOp;
use crate::report::{rounds, FastestRounds, Run, SETUP_BATCH};
use crate::script::{sim_script, SimStep};
use crate::stats::{iq_mean_of_means, median, percentile};
use crate::trace::Tracer;

const NODES: u32 = 8;
const LOCATIONS: u32 = 64;
const WRITE_PCT: u32 = 40;
/// Ops per node per round: 4k ops per history, so that a round is short
/// enough (about 11 ms) to fall inside one of the host's fast spells.
const PER_NODE: usize = 512;

/// One round's measurements.
struct Round {
    setup_ns: u64,
    sim_ns: u64,
    certify: layers::SpecCost,
    ops: u64,
    msgs: u64,
    bytes: u64,
    envelopes: u64,
    invalidations: u64,
    all_done: bool,
    reads: Vec<u64>,
    writes: Vec<u64>,
}

/// Draws the script and builds the simulator (the set-up), then runs the
/// history to completion and certifies it (the timed region).
fn round(seed: u64, tracer: Option<&mut Tracer>, k: u64) -> Round {
    let t0 = Instant::now();
    let script = sim_script(NODES, LOCATIONS, PER_NODE, WRITE_PCT, seed);
    let recorder: Recorder<Word> = Recorder::new(NODES as usize);
    let config = CausalConfig::<Word>::builder(NODES, LOCATIONS).build();
    let actors = (0..NODES)
        .map(|i| CausalActor::new(CausalState::new(NodeId::new(i), config.clone())))
        .collect();
    let mut sim = Sim::new(
        actors,
        SimOpts {
            seed,
            recorder: Some(recorder.clone()),
            ..SimOpts::default()
        },
    );
    let lat = Arc::new(Mutex::new((Vec::new(), Vec::new())));
    for (node, steps) in script.into_iter().enumerate() {
        let mut steps = steps.into_iter();
        let mut issued: Option<(Instant, bool)> = None;
        let lat = Arc::clone(&lat);
        sim.set_client(
            node,
            FnClient::new(move |_last| {
                if let Some((t, read)) = issued.take() {
                    let ns = t.elapsed().as_nanos() as u64;
                    let mut l = lat.lock().expect("latency log poisoned");
                    if read {
                        l.0.push(ns);
                    } else {
                        l.1.push(ns);
                    }
                }
                let op = match steps.next()? {
                    SimStep::Read(loc) => ClientOp::Read(loc),
                    SimStep::Write(loc, v) => ClientOp::Write(loc, v),
                };
                issued = Some((Instant::now(), matches!(op, ClientOp::Read(_))));
                Some(op)
            }),
        );
    }
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let report = sim.run_to_completion();
    let sim_end = Instant::now();
    let exec = Execution::from_recorder(&recorder);
    let certify = match tracer {
        Some(t) => {
            t.record("sim.run", k, start, sim_end);
            layers::certify(&exec, Some(t), k)
        }
        None => layers::certify(&exec, None, k),
    };
    let (reads, writes) = std::mem::take(&mut *lat.lock().expect("latency log poisoned"));
    Round {
        setup_ns,
        sim_ns: (sim_end - start).as_nanos() as u64,
        certify,
        ops: recorder.total_ops() as u64,
        msgs: sim.messages().snapshot().total(),
        bytes: sim.bytes().snapshot().total(),
        envelopes: sim.envelopes().snapshot().total(),
        invalidations: (0..NODES as usize)
            .map(|i| sim.actor(i).state().invalidation_count())
            .sum(),
        all_done: report.all_done,
        reads,
        writes,
    }
}

/// Runs the workload for `budget`; with `traced`, also the per-layer
/// measurements.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Run {
    let mut run = Run::default();
    let timed = if traced { budget.mul_f64(0.35) } else { budget };
    // The seed's bill: every round replays the same seeded history, so
    // every round must send exactly the first round's messages.
    let mut expected: Option<(u64, u64)> = None;
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut fastest = FastestRounds::default();
    let mut tracer = Tracer::new();
    let (mut sim_ns, mut graph_ns, mut check_ns, mut traced_ops) = (0u64, 0u64, 0u64, 0u64);
    let (mut envelopes, mut invalidations, mut peaks, mut allocs) = (0u64, 0u64, Vec::new(), 0u64);
    let mut k_all = 0u64;
    // Each round runs on the next allowed CPU in turn, so that the fastest
    // round is taken over every vCPU, not only the one the scheduler
    // happened to leave the thread on (see `host::pin`).
    let cpus = host::allowed_cpus();
    let pin_round = |k: usize| {
        if let Some(&cpu) = cpus.get(k % cpus.len().max(1)) {
            host::pin(&[cpu]);
        }
    };
    rounds(crate::WARMUP, 1, |k| {
        pin_round(k);
        drop(round(seed, None, 0));
    });
    for phase_traced in [false, true] {
        if phase_traced && !traced {
            break;
        }
        rounds(timed, 3, |_| {
            let k = k_all;
            k_all += 1;
            pin_round(k as usize);
            let before = alloc::allocs();
            alloc::set_counting(phase_traced);
            let r = round(seed, phase_traced.then_some(&mut tracer), k);
            alloc::set_counting(false);
            let total_ns = r.sim_ns + r.certify.graph_ns + r.certify.check_ns;
            let rate = r.ops as f64 / (total_ns.max(1) as f64 / 1e9);
            run.attempted += r.ops;
            run.ops += r.ops;
            run.msgs += r.msgs;
            run.wire_bytes += r.bytes;
            let bill = (r.msgs, r.bytes);
            if *expected.get_or_insert(bill) != bill {
                run.reject(
                    r.ops,
                    format!(
                        "certify round {k}: bill {bill:?} differs from the seed's {expected:?}"
                    ),
                );
            }
            if !r.all_done {
                run.reject(r.ops, format!("certify round {k}: the simulation wedged"));
            }
            if !r.certify.correct {
                run.reject(
                    r.ops,
                    format!("certify round {k}: check_causal rejected the history"),
                );
            }
            if phase_traced {
                traced_rates.push(rate);
                sim_ns += r.sim_ns;
                graph_ns += r.certify.graph_ns;
                check_ns += r.certify.check_ns;
                traced_ops += r.ops;
                envelopes += r.envelopes;
                invalidations += r.invalidations;
                peaks.push(r.certify.peak_bytes as f64);
                allocs += alloc::allocs() - before;
            } else {
                rates.push(rate);
                let setup_s = r.setup_ns as f64 / 1e9;
                fastest.setup_s = Some(fastest.setup_s.map_or(setup_s, |b| b.min(setup_s)));
                fastest.ops_per_s = fastest.ops_per_s.max(rate);
                fastest.read_p50_ns = lowest_p50(fastest.read_p50_ns, &r.reads);
                fastest.write_p50_ns = lowest_p50(fastest.write_p50_ns, &r.writes);
                run.setup_s.push(setup_s);
                run.timed_rounds.push((r.ops, total_ns));
                r.reads.iter().for_each(|&ns| run.reads.push(ns));
                r.writes.iter().for_each(|&ns| run.writes.push(ns));
            }
        });
    }
    host::pin(&cpus);
    let (reads, writes) = run.latency_summaries();
    let us = |ns: Option<f64>| ns.map_or(f64::NAN, |v| v / 1000.0);
    eprintln!(
        "certify over all rounds (interquartile means): \
         setup_s={:.6} ops_per_s={:.0} read_p50_us={:.3} write_p50_us={:.3}",
        iq_mean_of_means(&run.setup_s, SETUP_BATCH).unwrap_or(f64::NAN),
        run.ops_per_s().unwrap_or(f64::NAN),
        us(reads.p50),
        us(writes.p50)
    );
    run.fastest = Some(fastest);
    if traced {
        let ops = traced_ops.max(1) as f64;
        let untraced = median(&rates).unwrap_or(f64::NAN);
        run.layer(
            "trace.overhead_ratio",
            1.0 - median(&traced_rates).unwrap_or(f64::NAN) / untraced,
            "ratio",
        );
        run.layer("sim.run_ns_per_op", sim_ns as f64 / ops, "ns");
        run.layer("spec.graph_build_ns_per_op", graph_ns as f64 / ops, "ns");
        run.layer("spec.check_ns_per_op", check_ns as f64 / ops, "ns");
        run.layer("spec.peak_bytes", median(&peaks).unwrap_or(f64::NAN), "B");
        run.layer("simnet.envelopes_per_op", envelopes as f64 / ops, "env/op");
        run.layer(
            "core.state.invalidations_per_op",
            invalidations as f64 / ops,
            "1/op",
        );
        run.layer("core.allocs_per_op", allocs as f64 / ops, "allocs/op");
        // The replay runs the nodes' scripts round-robin, one op at a time:
        // the simulator's kinds of state step, in a serial interleaving.
        let script = sim_script(NODES, LOCATIONS, PER_NODE, WRITE_PCT, seed);
        let ops: Vec<ReplayOp<Word>> = (0..PER_NODE)
            .flat_map(|i| {
                script
                    .iter()
                    .enumerate()
                    .map(move |(node, steps)| match &steps[i] {
                        SimStep::Read(loc) => ReplayOp {
                            node: node as u32,
                            loc: *loc,
                            write: None,
                        },
                        SimStep::Write(loc, v) => ReplayOp {
                            node: node as u32,
                            loc: *loc,
                            write: Some(Arc::new(*v)),
                        },
                    })
            })
            .collect();
        let config = CausalConfig::<Word>::builder(NODES, LOCATIONS).build();
        let (_, spans) = layers::replay_layers(&mut run, &config, &ops, 0, &mut tracer);
        crate::write_trace("certify", seed, &[tracer, spans]);
    }
    run
}

/// The lower of `best` and the median of one round's `samples`.
fn lowest_p50(best: Option<f64>, samples: &[u64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    match (best, percentile(&sorted, 0.5).map(|p| p as f64)) {
        (Some(b), Some(p)) => Some(b.min(p)),
        (b, p) => b.or(p),
    }
}
