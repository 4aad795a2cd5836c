//! What one benchmark run accumulates, and how it becomes the result
//! line the command prints last.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::alloc::peak_rss_mb;
use crate::host::HostStamp;
use crate::stats::{failed_ratio, iq_mean, iq_mean_of_means, Latencies, LatencySummary};

/// Set-ups per batch for `setup_s`. The TCP mesh's bring-up is bimodal
/// (its acceptor sleeps 5 ms between polls, so a dial that lands just
/// after a poll waits it out); a median of single set-ups jumps between
/// the modes as their mix shifts, the interquartile mean of batch means
/// moves with it.
pub const SETUP_BATCH: usize = 5;

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted in timed regions.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Operations of rounds whose output a check rejected.
    pub rejected: u64,
    /// Why checks failed, one line each.
    pub problems: Vec<String>,
    /// Set-up time of each round, seconds.
    pub setup_s: Vec<f64>,
    /// Completed ops and timed-region ns of each round.
    pub timed_rounds: Vec<(u64, u64)>,
    /// Issue-to-return latency of every read, ns.
    pub reads: Latencies,
    /// Issue-to-return latency of every write, ns.
    pub writes: Latencies,
    /// Operations completed in timed regions.
    pub ops: u64,
    /// Logical protocol messages those operations sent.
    pub msgs: u64,
    /// Bytes those operations sent.
    pub wire_bytes: u64,
    /// Per-layer metrics of a traced run: name, value, unit.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// Set by a workload whose rounds repeat identical work: its ops/s
    /// and p50s are then those of its fastest rounds.
    pub fastest: Option<FastestRounds>,
}

/// A workload's figures taken from its fastest rounds rather than over
/// all of them. Every `certify` round runs the same seeded history, so
/// the work is fixed and only the host's speed varies between rounds;
/// the fastest round measures that work where the host ran at full speed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FastestRounds {
    /// Shortest set-up of any round, seconds.
    pub setup_s: Option<f64>,
    /// Highest ops/s of any round.
    pub ops_per_s: f64,
    /// Lowest per-round read p50, ns.
    pub read_p50_ns: Option<f64>,
    /// Lowest per-round write p50, ns.
    pub write_p50_ns: Option<f64>,
}

impl Run {
    /// Records a failed output check that invalidates `ops` operations.
    pub fn reject(&mut self, ops: u64, why: String) {
        self.rejected += ops;
        self.problems.push(why);
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push((name, value, unit));
    }

    /// `true` when no op failed and every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.rejected == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The end-to-end metrics: name, value (absent when unmeasured),
    /// unit. Percentiles are medians over windows of samples (see
    /// [`Latencies`]) and set-up time is the interquartile mean over
    /// batches of [`SETUP_BATCH`] set-ups of their mean, or all four come from the
    /// fastest rounds when [`Run::fastest`] is set.
    ///
    /// The 99th percentiles are reported beside them on standard error
    /// but are not result-line metrics: on a loaded host their spread over
    /// ten seeds reached 0.2–0.32 of the median, so a regression bound on
    /// them would flag host noise.
    #[must_use]
    pub fn end_to_end(&mut self) -> Vec<(&'static str, Option<f64>, &'static str)> {
        let us = |ns: Option<f64>| ns.map(|v| v / 1000.0);
        let r = self.reads.summary();
        let w = self.writes.summary();
        let per_op = |x: u64| (self.ops > 0).then(|| x as f64 / self.ops as f64);
        let (setup_s, ops_per_s, read_p50, write_p50) = match self.fastest {
            Some(f) => (f.setup_s, Some(f.ops_per_s), f.read_p50_ns, f.write_p50_ns),
            None => (
                iq_mean_of_means(&self.setup_s, SETUP_BATCH),
                self.ops_per_s(),
                r.p50,
                w.p50,
            ),
        };
        vec![
            ("setup_s", setup_s, "s"),
            ("ops_per_s", ops_per_s, "ops/s"),
            ("read_p50_us", us(read_p50), "us"),
            ("write_p50_us", us(write_p50), "us"),
            ("msgs_per_op", per_op(self.msgs), "msgs/op"),
            ("wire_bytes_per_op", per_op(self.wire_bytes), "B/op"),
            ("peak_mem_mb", Some(peak_rss_mb()), "MB"),
        ]
    }

    /// Interquartile mean ([`iq_mean`]) over rounds of each round's
    /// completed ops per second of its timed region.
    pub fn ops_per_s(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .timed_rounds
            .iter()
            .map(|&(ops, ns)| ops as f64 / (ns.max(1) as f64 / 1e9))
            .collect();
        iq_mean(&rates)
    }

    /// Failed or rejected over attempted operations. Not a result-line
    /// metric: it is 0 on every accepted run, and the line's `attempted`
    /// and `failed` fields carry it.
    #[must_use]
    pub fn failed_op_ratio(&self) -> f64 {
        failed_ratio(self.attempted, self.failed, self.rejected)
    }

    /// Failed plus rejected operations, at most `attempted`.
    #[must_use]
    pub fn failed_total(&self) -> u64 {
        (self.failed + self.rejected).min(self.attempted)
    }

    /// Read and write latency summaries (for the human-readable report).
    #[must_use]
    pub fn latency_summaries(&mut self) -> (LatencySummary, LatencySummary) {
        (self.reads.summary(), self.writes.summary())
    }
}

/// Runs `round(k)` for k = 0, 1, … until `budget` has passed since the
/// first began, and at least `min_rounds` times.
pub fn rounds(budget: Duration, min_rounds: usize, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    let mut k = 0;
    while k < min_rounds || start.elapsed() < budget {
        round(k);
        k += 1;
    }
}

/// Formats a JSON number; non-finite values have no JSON form.
fn num(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

/// Escapes a string for JSON.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`, each
/// metric as `{"value": …, "unit": …}`. Absent and non-finite metrics are
/// left out rather than reported as a number they are not.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, Option<f64>, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter_map(|(name, v, unit)| {
            let v = num((*v)?)?;
            Some(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                esc(name),
                esc(unit)
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The host stamp and wake-up probe as a one-line note for stderr.
#[must_use]
pub fn host_line(host: &HostStamp, wake_before: f64, wake_after: f64, stolen_s: f64) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" kernel={} rustc=\"{}\" wake_rtt_ns before={wake_before:.0} \
         after={wake_after:.0} steal_s={stolen_s:.2}",
        host.nproc, host.cpu, host.kernel, host.rustc
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_drops_absent_values() {
        let line = result_line(
            true,
            10,
            0,
            &[
                ("a_us", Some(1.5), "us"),
                ("b", None, "s"),
                ("c", Some(f64::NAN), "s"),
            ],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"a_us": {"value": 1.5, "unit": "us"}}}"#
        );
    }

    #[test]
    fn rejected_ops_count_as_failed() {
        let mut run = Run {
            attempted: 200,
            ..Run::default()
        };
        assert!(run.correct());
        run.reject(50, "bill mismatch".into());
        assert!(!run.correct());
        assert_eq!(run.failed_op_ratio(), 0.25);
    }

    #[test]
    fn fastest_rounds_replace_the_all_round_figures() {
        let mut run = Run {
            ops: 4,
            timed_rounds: vec![(2, 1_000_000_000), (2, 500_000_000)],
            ..Run::default()
        };
        run.reads.push(9_000);
        run.setup_s = vec![0.003, 0.001, 0.002];
        let value = |run: &mut Run, name: &str| {
            run.end_to_end()
                .into_iter()
                .find(|m| m.0 == name)
                .and_then(|m| m.1)
        };
        assert_eq!(value(&mut run, "ops_per_s"), Some(3.0));
        assert_eq!(value(&mut run, "read_p50_us"), Some(9.0));
        assert_eq!(value(&mut run, "setup_s"), Some(0.002));
        run.fastest = Some(FastestRounds {
            setup_s: Some(0.001),
            ops_per_s: 4.0,
            read_p50_ns: Some(7_000.0),
            write_p50_ns: None,
        });
        assert_eq!(value(&mut run, "ops_per_s"), Some(4.0));
        assert_eq!(value(&mut run, "read_p50_us"), Some(7.0));
        assert_eq!(value(&mut run, "write_p50_us"), None);
        assert_eq!(value(&mut run, "setup_s"), Some(0.001));
    }

    #[test]
    fn rounds_runs_at_least_the_minimum() {
        let mut n = 0;
        rounds(Duration::ZERO, 3, |_| n += 1);
        assert_eq!(n, 3);
    }
}
