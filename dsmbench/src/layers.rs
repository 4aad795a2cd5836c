//! Per-layer measurements for the traced run: each times calls into one
//! layer's public functions, fed with the workload's own data (its
//! message mix, its stamps, its history, its WAL).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use bytes::Bytes;
use causal_dsm::{DirDisk, DurableConfig, Msg, Store, SyncPolicy};
use causal_spec::{check_causal_with_graph, CausalGraph, Execution};
use memcore::{NetStats, NodeId, Value};
use simnet::codec::{deframe, frame, Wire};
use simnet::{Network, Tagged};
use vclock::VectorClock;

use crate::alloc;
use crate::stats::{iq_mean, median, self_time};
use crate::trace::Tracer;

/// Median over `reps` repetitions of the mean ns per call of `f(i)` over
/// `iters` calls.
pub fn per_call_ns(reps: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&runs).unwrap_or(f64::NAN)
}

/// The workload's message mix, plus one `Msg::Batch` per `batch` consecutive
/// WRITE requests when `batch > 1` (what the batching transport sends).
#[must_use]
pub fn message_mix<V: Value>(captured: &[Msg<V>], batch: usize) -> Vec<Msg<V>> {
    let mut mix = captured.to_vec();
    if batch > 1 {
        let writes: Vec<Msg<V>> = captured
            .iter()
            .filter(|m| matches!(m, Msg::Write { .. }))
            .cloned()
            .collect();
        mix.extend(
            writes
                .chunks(batch)
                .filter(|c| c.len() > 1)
                .map(|c| Msg::Batch(c.to_vec())),
        );
    }
    mix
}

/// `simnet::codec::frame` and `deframe` ns per message of `mix`.
#[must_use]
pub fn codec_ns<V: Value + Wire>(mix: &[Msg<V>]) -> (f64, f64) {
    let k = mix.len();
    let encode = per_call_ns(5, k * 4, |i| {
        std::hint::black_box(frame(&mix[i % k]));
    });
    let frames: Vec<Bytes> = mix.iter().map(frame).collect();
    let decode = per_call_ns(5, k * 4, |i| {
        let mut b = frames[i % k].clone();
        std::hint::black_box(deframe::<Msg<V>>(&mut b).expect("own frames decode"));
    });
    (encode, decode)
}

/// The vector timestamps the mix carries.
#[must_use]
pub fn stamps<V: Value>(mix: &[Msg<V>]) -> Vec<VectorClock> {
    mix.iter()
        .filter_map(|m| match m {
            Msg::ReadReply { vt, .. } | Msg::Write { vt, .. } | Msg::WriteReply { vt, .. } => {
                Some(vt.clock().clone())
            }
            _ => None,
        })
        .collect()
}

/// `VectorClock::update` and `dominated_by` ns per call over `stamps`.
#[must_use]
pub fn vclock_ns(stamps: &[VectorClock]) -> (f64, f64) {
    let k = stamps.len();
    let mut acc = stamps[0].clone();
    let update = per_call_ns(5, 20_000, |i| {
        acc.update(&stamps[i % k]);
        std::hint::black_box(&acc);
    });
    let dominated = per_call_ns(5, 20_000, |i| {
        std::hint::black_box(stamps[i % k].dominated_by(&stamps[(i * 7 + 3) % k]));
    });
    (update, dominated)
}

/// `NetStats::record` ns per call over the mix's kinds: from one thread,
/// and from two threads recording the same node at once.
#[must_use]
pub fn netstats_ns<V: Value>(mix: &[Msg<V>], nodes: usize) -> (f64, f64) {
    let kinds: Vec<&'static str> = mix.iter().map(Tagged::kind).collect();
    let k = kinds.len();
    let stats = NetStats::new(nodes);
    let one = per_call_ns(5, 50_000, |i| stats.record(NodeId::new(0), kinds[i % k]));
    let start = Barrier::new(2);
    let two: Vec<f64> = thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    per_call_ns(5, 50_000, |i| stats.record(NodeId::new(0), kinds[i % k]))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("recorder thread"))
            .collect()
    });
    (one, median(&two).unwrap_or(f64::NAN))
}

/// Median round trip of a mix message over `Network::send` and
/// `Mailbox::recv` between two threads.
#[must_use]
pub fn hop_rtt_ns<V: Value>(mix: &[Msg<V>], rounds: usize) -> f64 {
    let net: Network<Msg<V>> = Network::new(2);
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let mine = net.take_mailbox(a);
    let theirs = net.take_mailbox(b);
    let echo_net = net.clone();
    let echo = thread::spawn(move || {
        while let Some(env) = theirs.recv() {
            if matches!(env.payload, Msg::Halt) {
                break;
            }
            echo_net.send(b, a, env.payload).expect("pinger alive");
        }
    });
    let k = mix.len();
    let mut rtt: Vec<f64> = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let t = Instant::now();
        net.send(a, b, mix[i % k].clone()).expect("echo alive");
        mine.recv().expect("echo alive");
        rtt.push(t.elapsed().as_nanos() as f64);
    }
    net.send(a, b, Msg::Halt).expect("echo alive");
    echo.join().expect("echo thread panicked");
    median(&rtt).unwrap_or(f64::NAN)
}

/// `CausalGraph::build` and `check_causal_with_graph` on one history.
#[derive(Clone, Copy, Debug)]
pub struct SpecCost {
    /// Graph build time.
    pub graph_ns: u64,
    /// Check time.
    pub check_ns: u64,
    /// Peak heap bytes above the starting level (0 unless counting).
    pub peak_bytes: u64,
    /// The verdict.
    pub correct: bool,
}

/// Builds the causal graph of `exec` and checks it, timing both, with
/// spans in `tracer` when given.
#[must_use]
pub fn certify<V: Clone>(exec: &Execution<V>, tracer: Option<&mut Tracer>, op: u64) -> SpecCost {
    let mark = alloc::mark_peak();
    let t0 = Instant::now();
    let graph = CausalGraph::build(exec);
    let t1 = Instant::now();
    let correct = match &graph {
        Ok(g) => check_causal_with_graph(exec, g).is_ok_and(|r| r.is_correct()),
        Err(_) => false,
    };
    let t2 = Instant::now();
    let peak_bytes = alloc::peak_since(mark);
    drop(graph);
    if let Some(t) = tracer {
        t.record("spec.graph_build", op, t0, t1);
        t.record("spec.check", op, t1, t2);
    }
    SpecCost {
        graph_ns: (t1 - t0).as_nanos() as u64,
        check_ns: (t2 - t1).as_nanos() as u64,
        peak_bytes,
        correct,
    }
}

/// WAL costs measured on one node's data directory.
#[derive(Clone, Copy, Debug)]
pub struct WalCost {
    /// `Store::append` ns per one-record call, sync policy `None`.
    pub append_ns: f64,
    /// `Store::sync` ns after a one-record append.
    pub sync_ns: f64,
    /// `Store::open` recovery ns per recovered record.
    pub recover_ns_per_record: f64,
}

/// Recovers `dir`'s WAL, then appends and syncs its records into a fresh
/// `DirDisk` under `scratch` (removed before returning).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn wal_cost<V: Value + Wire>(dir: &Path, scratch: &Path) -> std::io::Result<WalCost> {
    let t = Instant::now();
    let (_store, recovered) =
        Store::<V>::open(Box::new(DirDisk::open(dir)?), DurableConfig::default());
    let recover_ns = t.elapsed().as_nanos() as f64;
    let records = recovered.records;
    if records.is_empty() {
        return Err(std::io::Error::other("empty WAL"));
    }
    let cfg = DurableConfig {
        sync: SyncPolicy::None,
        checkpoint_every: u64::MAX,
    };
    let (mut store, _) = Store::<V>::open(Box::new(DirDisk::open(scratch)?), cfg);
    let k = records.len();
    let append_ns = per_call_ns(3, k.min(2000), |i| {
        store.append(std::slice::from_ref(&records[i % k]))
    });
    let mut syncs: Vec<f64> = Vec::with_capacity(200);
    for i in 0..200 {
        store.append(std::slice::from_ref(&records[i % k]));
        let t = Instant::now();
        store.sync();
        syncs.push(t.elapsed().as_nanos() as f64);
    }
    drop(store);
    std::fs::remove_dir_all(scratch)?;
    Ok(WalCost {
        append_ns,
        sync_ns: median(&syncs).unwrap_or(f64::NAN),
        recover_ns_per_record: recover_ns / k as f64,
    })
}

/// Replays `ops` step by step with spans, three times, and adds the
/// layers the replay and the workload's message mix measure: state and
/// transport self times, codec, `NetStats`, vector clocks and the hop
/// round trip. Returns the replay's remote-read time (the sum of the
/// interquartile-mean self times of every span a remote read runs
/// through) and the replay's spans.
pub fn replay_layers<V: Value + Wire>(
    run: &mut crate::report::Run,
    config: &causal_dsm::CausalConfig<V>,
    ops: &[crate::replay::ReplayOp<V>],
    batch: usize,
    tracer: &mut Tracer,
) -> (f64, Tracer) {
    let mut spans = Tracer::new();
    let mut last = None;
    for _ in 0..3 {
        last = Some(crate::replay::replay(config, ops, 4096, Some(&mut spans)));
    }
    let r = last.expect("three replays ran");
    let all = spans.self_times();
    let mean = |st: &BTreeMap<&str, Vec<u64>>, name: &str| {
        st.get(name).and_then(|v| iq_mean_ns(v)).unwrap_or(0.0)
    };
    for (name, metric) in [
        ("core.state.begin_read", "core.state.begin_read_ns"),
        ("core.state.serve", "core.state.serve_ns"),
        ("core.state.finish_read", "core.state.finish_read_ns"),
        ("core.state.begin_write", "core.state.begin_write_ns"),
        ("core.state.finish_write", "core.state.finish_write_ns"),
        ("simnet.send", "simnet.send_ns"),
    ] {
        run.layer(metric, mean(&all, name), "ns");
    }
    // A remote read's time: the self time of every span it runs through —
    // its state steps, two sends, two receives, and its own span's self
    // time, which is the replay's bookkeeping between those calls.
    let remote = remote_read_self_times(&spans);
    let remote_read_ns = remote
        .iter()
        .map(|(name, v)| {
            let per_read = if matches!(*name, "simnet.send" | "simnet.recv") {
                2.0
            } else {
                1.0
            };
            per_read * iq_mean_ns(v).unwrap_or(0.0)
        })
        .sum();
    run.layer(
        "core.read_hit_ratio",
        r.read_hits as f64 / r.reads.max(1) as f64,
        "ratio",
    );
    run.layer(
        "memcore.netstats.records_per_op",
        r.netstats_records as f64 / ops.len().max(1) as f64,
        "records/op",
    );
    let mix = message_mix(&r.captured, batch);
    if mix.is_empty() {
        return (remote_read_ns, spans);
    }
    let t = Instant::now();
    let (enc, dec) = codec_ns(&mix);
    tracer.record("layer.codec", 0, t, Instant::now());
    run.layer("simnet.codec.encode_ns", enc, "ns");
    run.layer("simnet.codec.decode_ns", dec, "ns");
    let t = Instant::now();
    run.layer("simnet.hop_rtt_ns", hop_rtt_ns(&mix, 4000), "ns");
    tracer.record("layer.hop_rtt", 0, t, Instant::now());
    let t = Instant::now();
    let (one, two) = netstats_ns(&mix, config.nodes() as usize);
    tracer.record("layer.netstats", 0, t, Instant::now());
    run.layer("memcore.netstats.record_ns", one, "ns");
    run.layer("memcore.netstats.record_2t_ns", two, "ns");
    let stamps = stamps(&mix);
    if !stamps.is_empty() {
        let t = Instant::now();
        let (update, dominated) = vclock_ns(&stamps);
        tracer.record("layer.vclock", 0, t, Instant::now());
        run.layer("vclock.update_ns", update, "ns");
        run.layer("vclock.dominated_by_ns", dominated, "ns");
    }
    (remote_read_ns, spans)
}

/// [`iq_mean`] of nanosecond durations.
fn iq_mean_ns(v: &[u64]) -> Option<f64> {
    iq_mean(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Self times of the spans of remote reads (reads the owner served),
/// grouped by span name; the read's own span is grouped under its name.
fn remote_read_self_times(t: &Tracer) -> BTreeMap<&'static str, Vec<u64>> {
    let spans = t.spans();
    let mut kids: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            if spans[p as usize].name == "replay.read" {
                kids.entry(p as usize).or_default().push(i);
            }
        }
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (parent, children) in kids {
        if !children
            .iter()
            .any(|&c| spans[c].name == "core.state.serve")
        {
            continue;
        }
        let covered: Vec<(u64, u64)> = children
            .iter()
            .map(|&c| (spans[c].start, spans[c].end))
            .collect();
        let p = spans[parent];
        out.entry(p.name)
            .or_default()
            .push(self_time(p.start, p.end, &covered));
        for c in children {
            out.entry(spans[c].name)
                .or_default()
                .push(spans[c].end - spans[c].start);
        }
    }
    out
}
