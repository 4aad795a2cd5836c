//! The host stamp printed with every result, and the wake-up probe.
//!
//! On small VMs the cost of waking a parked thread flips between modes
//! with host state (a bare channel ping-pong measured 3.0 µs and 8.4 µs
//! p50 on the same 2-vCPU guest, minutes apart), and every cross-thread
//! latency in the in-process engine follows it. The probe runs before and
//! after each run so that such a flip reads as the host changing, not as
//! the code getting slower.

use std::process::Command;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use crate::stats::{median, percentile};

/// Where and on what a result was measured.
#[derive(Clone, Debug)]
pub struct HostStamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
}

impl HostStamp {
    /// Reads the stamp from the running system.
    #[must_use]
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|| "unknown".into());
        HostStamp {
            nproc: thread::available_parallelism().map_or(1, usize::from),
            cpu,
            kernel,
            rustc,
        }
    }
}

/// CPU time the hypervisor has stolen from this guest since boot, in
/// seconds (the `steal` column of `/proc/stat`); `NaN` where unknown.
#[must_use]
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().find(|l| l.starts_with("cpu "))?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// Median round trip, in nanoseconds, of a `std::sync::mpsc` ping-pong
/// between two threads: the cost of one wake-up each way.
#[must_use]
pub fn wake_rtt_ns(rounds: usize) -> f64 {
    let (ping_tx, ping_rx) = mpsc::channel::<u64>();
    let (pong_tx, pong_rx) = mpsc::channel::<u64>();
    let echo = thread::spawn(move || {
        while let Ok(v) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    let mut rtt = Vec::with_capacity(rounds);
    for i in 0..rounds as u64 {
        let t = Instant::now();
        ping_tx.send(i).expect("echo thread alive");
        let back = pong_rx.recv().expect("echo thread alive");
        rtt.push(t.elapsed().as_nanos() as u64);
        assert_eq!(back, i);
    }
    drop(ping_tx);
    echo.join().expect("echo thread panicked");
    rtt.sort_unstable();
    percentile(&rtt, 0.5).map_or(f64::NAN, |v| v as f64)
}

/// The probe as reported: the median of three short probes, so one
/// descheduling does not set the figure.
#[must_use]
pub fn wake_probe() -> f64 {
    let runs: Vec<f64> = (0..3).map(|_| wake_rtt_ns(2000)).collect();
    median(&runs).unwrap_or(f64::NAN)
}

/// A Linux CPU set: 1024 bits, as `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The logical CPUs the calling thread may run on; empty where the
/// kernel does not say.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus` (ignored when empty or refused).
///
/// The guest's vCPUs change speed independently of each other (a fixed
/// probe alternating between the two vCPUs read 10 ms on one and 15 ms on
/// the other for seconds at a time, either way round), and the guest
/// scheduler keeps an idle-machine thread where it is, so a
/// single-threaded workload can sit on the slow vCPU for a whole run.
pub fn pin(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set[c / 64] |= 1 << (c % 64);
    }
    if set != [0; 16] {
        // SAFETY: `set` is a readable `cpu_set_t`-sized buffer; pid 0 is
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }
}
