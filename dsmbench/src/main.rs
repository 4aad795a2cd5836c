//! The causal DSM's benchmark: one command per (workload, seed) that
//! runs the workload for a fixed time, checks its outputs, and prints
//! every end-to-end metric — or, with `--trace 1`, every per-layer
//! metric — as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path dsmbench/Cargo.toml -- \
//!     --workload inproc_mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Exit status is 0 only when every op succeeded and every output check
//! passed. See `dsmbench/NOTES.md` for the workloads and metrics.

mod alloc;
mod certify;
mod host;
mod inproc;
mod layers;
mod replay;
mod report;
mod script;
mod stats;
mod tcp;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads, by the names the result is reported under.
const WORKLOADS: [&str; 4] = [
    "inproc_mixed",
    "tcp_pipelined_writes",
    "tcp_durable_writes",
    "certify",
];

/// Untimed rounds each run starts with. On burstable VMs the first
/// seconds of load after an idle spell run in a faster host mode (the
/// in-process engine measured about 3x faster for 2-3 s, then settled);
/// warming up first makes every run measure the sustained mode.
pub const WARMUP: Duration = Duration::from_secs(3);

/// Every per-layer metric a traced run reports, with its unit. A layer
/// that does no work on a workload reports 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("host.wake_rtt_ns", "ns"),
    ("host.wake_rtt_after_ns", "ns"),
    ("core.state.begin_read_ns", "ns"),
    ("core.state.serve_ns", "ns"),
    ("core.state.finish_read_ns", "ns"),
    ("core.state.begin_write_ns", "ns"),
    ("core.state.finish_write_ns", "ns"),
    ("core.engine.wait_ns", "ns"),
    ("core.read_hit_ratio", "ratio"),
    ("core.state.invalidations_per_op", "1/op"),
    ("core.allocs_per_op", "allocs/op"),
    ("core.flush_ns", "ns"),
    ("simnet.send_ns", "ns"),
    ("simnet.hop_rtt_ns", "ns"),
    ("simnet.envelopes_per_op", "env/op"),
    ("simnet.codec.encode_ns", "ns"),
    ("simnet.codec.decode_ns", "ns"),
    ("memcore.netstats.record_ns", "ns"),
    ("memcore.netstats.record_2t_ns", "ns"),
    ("memcore.netstats.records_per_op", "records/op"),
    ("vclock.update_ns", "ns"),
    ("vclock.dominated_by_ns", "ns"),
    ("net.writev_per_op", "1/op"),
    ("net.frames_per_writev", "ratio"),
    ("net.bytes_per_op", "B/op"),
    ("durable.append_ns", "ns"),
    ("durable.sync_ns", "ns"),
    ("durable.recover_ns_per_record", "ns"),
    ("durable.wal_bytes_per_op", "B/op"),
    ("spec.graph_build_ns_per_op", "ns"),
    ("spec.check_ns_per_op", "ns"),
    ("spec.peak_bytes", "B"),
    ("sim.run_ns_per_op", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err("--seconds takes a whole number from 1 to 600".into()),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space for WAL directories and trace files, inside the
/// directory the benchmark runs from.
fn work_dir() -> PathBuf {
    Path::new(".bench_tmp").join(std::process::id().to_string())
}

/// Writes a traced run's spans, one thread's log after another, to
/// `.bench_out/trace-<workload>-<seed>.tsv`.
pub fn write_trace(workload: &str, seed: u64, tracers: &[trace::Tracer]) {
    let dir = Path::new(".bench_out");
    let path = dir.join(format!("trace-{workload}-{seed}.tsv"));
    let _ = std::fs::remove_file(&path);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| tracers.iter().try_for_each(|t| t.write_tsv(&path, 100_000)));
    let spans: usize = tracers.iter().map(|t| t.spans().len()).sum();
    match written {
        Ok(()) => eprintln!("spans: {spans} recorded, written to {}", path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsmbench: {e}");
            eprintln!(
                "usage: dsmbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = host::HostStamp::read();
    let steal_before = host::steal_s();
    let wake_before = host::wake_probe();
    let budget = Duration::from_secs(args.seconds);
    let work = work_dir();
    let mut run = match args.workload.as_str() {
        "inproc_mixed" => inproc::run(args.seed, budget, args.trace),
        "tcp_pipelined_writes" => tcp::run(args.seed, budget, args.trace, None),
        "tcp_durable_writes" => tcp::run(args.seed, budget, args.trace, Some(&work)),
        "certify" => certify::run(args.seed, budget, args.trace),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let _ = std::fs::remove_dir_all(&work);
    // Left in place when another run still uses it.
    let _ = std::fs::remove_dir(".bench_tmp");
    let wake_after = host::wake_probe();

    let stolen = host::steal_s() - steal_before;
    eprintln!(
        "{}",
        report::host_line(&host, wake_before, wake_after, stolen)
    );
    let (r, w) = run.latency_summaries();
    eprintln!(
        "{} seed {}: rounds={} setups={} attempted={} failed={} failed_op_ratio={} \
         reads n={} in {} windows, writes n={} in {} windows",
        args.workload,
        args.seed,
        run.timed_rounds.len(),
        run.setup_s.len(),
        run.attempted,
        run.failed,
        run.failed_op_ratio(),
        r.n,
        r.windows,
        w.n,
        w.windows
    );
    let us = |ns: Option<f64>| ns.map_or("absent".to_owned(), |v| format!("{:.3}", v / 1000.0));
    eprintln!(
        "tails: read_p99_us={} (n={}) write_p99_us={} (n={})",
        us(r.p99),
        r.n,
        us(w.p99),
        w.n
    );
    for p in &run.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = run.correct();
    let metrics: Vec<(&str, Option<f64>, &str)> = if args.trace {
        run.layer("host.wake_rtt_ns", wake_before, "ns");
        run.layer("host.wake_rtt_after_ns", wake_after, "ns");
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = run.layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
                (name, Some(v), unit)
            })
            .collect()
    } else {
        run.end_to_end()
    };
    for (name, v, unit) in &metrics {
        match v {
            Some(v) => eprintln!("  {name:<34} {v:>16.4} {unit}"),
            None => eprintln!("  {name:<34} {:>16} {unit}", "absent"),
        }
    }
    println!(
        "{}",
        report::result_line(correct, run.attempted, run.failed_total(), &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
