//! Host speed: a fixed calibration kernel, timed next to the work it
//! calibrates, so a CPU-bound time can be rescaled to a reference host.
//!
//! The benchmark runs on a shared host whose speed drifts by tens of
//! percent within seconds to minutes, with no change to the code, and
//! each core drifts on its own. Work and kernel timed on the same core at
//! the same moments drift together; their ratio does not, and a change to
//! the program cannot move the kernel. A single-threaded step (a testbed
//! build) is calibrated by kernel runs on its own thread just before and
//! after it. A campaign iteration runs on every core, so a meter thread
//! runs the kernel every [`PERIOD`] while it goes on, landing on each
//! core in turn.

use crate::spans::Interval;
use crate::stats::median;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between the end of one meter probe and the start of the next:
/// with a kernel of about 1 ms, the meter keeps about 3 % of one core
/// busy.
const PERIOD: Duration = Duration::from_millis(30);

/// The kernel's time on the reference host. A rescaled time is the time
/// the work would have taken on a host where the kernel takes this long.
/// The kernel took 0.8–1.6 ms on the 2-core x86-64 VM the baseline was
/// measured on.
pub const REFERENCE_PROBE_SECS: f64 = 1e-3;

/// Meter probes an interval must span for its own speed to be used; a
/// shorter interval uses this many probes nearest to its middle.
const MIN_PROBES: usize = 3;

/// Records in the kernel's text.
const TEXT_RECORDS: usize = 2_000;
/// Vectors the kernel allocates.
const ALLOCATIONS: usize = 2_000;
/// Keys the kernel sorts.
const SORT_KEYS: usize = 10_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `wall` seconds of work done while the kernel took `probe` seconds,
/// rescaled to the reference host.
pub fn at_reference(wall: f64, probe: f64) -> f64 {
    if probe > 0.0 {
        wall * REFERENCE_PROBE_SECS / probe
    } else {
        wall
    }
}

/// The calibration kernel: what most of the program does, in small —
/// tokenize and parse JSON-like text, allocate and hash small vectors,
/// sort. A shared host slows such branchy, allocating code far more than
/// it slows a tight arithmetic loop, so the kernel must look like the
/// program to read the slowdown the program sees.
pub struct Kernel {
    text: String,
}

impl Kernel {
    /// The kernel with its input text, run once: a process's first run
    /// also pays for growing its heap.
    pub fn warm() -> Kernel {
        let kernel = Kernel {
            text: (0..TEXT_RECORDS)
                .map(|i| format!("{{\"k{i}\":{:.6},\"v\":{}}},", i as f64 / 7.0, i * 13))
                .collect(),
        };
        kernel.time();
        kernel
    }

    fn run(text: &str) -> f64 {
        let mut acc = 0.0;
        for token in text.split([',', ':', '{', '}']) {
            acc += token.trim().parse::<f64>().unwrap_or(token.len() as f64);
        }
        let mut table = std::collections::HashMap::new();
        for i in 0..ALLOCATIONS {
            let v: Vec<u32> = (0..(16 + i % 64) as u32).collect();
            table.insert(i * 7919 % 10_007, v);
        }
        acc += table.values().map(Vec::len).sum::<usize>() as f64;
        let mut x = 0x1234_5678_9abc_def0;
        let mut keys: Vec<u64> = (0..SORT_KEYS).map(|_| xorshift(&mut x)).collect();
        keys.sort_unstable();
        acc + keys[SORT_KEYS / 2] as f64
    }

    /// Runs the kernel once on this thread; its wall time, seconds.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(Kernel::run(std::hint::black_box(&self.text)));
        t0.elapsed().as_secs_f64()
    }
}

/// One meter probe: when it started and how long the kernel took.
#[derive(Debug, Clone, Copy)]
struct Probe {
    at: Instant,
    secs: f64,
}

/// The running meter thread.
pub struct HostMeter {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Probe>>,
}

impl HostMeter {
    /// Starts probing: once now, then every [`PERIOD`].
    pub fn start() -> HostMeter {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("host-meter".into())
            .spawn(move || {
                let kernel = Kernel::warm();
                let probe = || Probe {
                    at: Instant::now(),
                    secs: kernel.time(),
                };
                let mut probes = vec![probe()];
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    probes.push(probe());
                }
                probes
            })
            .expect("the meter thread starts");
        HostMeter { stop, thread }
    }

    /// Stops probing and returns what the meter saw.
    pub fn finish(self) -> HostSpeed {
        self.stop.store(true, Ordering::Relaxed);
        HostSpeed {
            probes: self.thread.join().expect("the meter thread does not panic"),
        }
    }
}

/// The meter's probes, in time order.
pub struct HostSpeed {
    probes: Vec<Probe>,
}

impl HostSpeed {
    /// Every probe's kernel time, seconds.
    pub fn probe_secs(&self) -> impl Iterator<Item = f64> + '_ {
        self.probes.iter().map(|p| p.secs)
    }

    /// `span`'s wall time rescaled to the reference host by the median
    /// probe taken during it (or, for a short interval, nearest to its
    /// middle).
    pub fn scaled(&self, span: Interval) -> f64 {
        let mut during: Vec<f64> = self
            .probes
            .iter()
            .filter(|p| p.at >= span.start && p.at <= span.end)
            .map(|p| p.secs)
            .collect();
        if during.len() < MIN_PROBES {
            let mid = span.start + span.end.saturating_duration_since(span.start) / 2;
            let gap = |p: &Probe| {
                if p.at > mid {
                    p.at - mid
                } else {
                    mid - p.at
                }
            };
            let mut near = self.probes.clone();
            near.sort_by_key(gap);
            during = near.iter().take(MIN_PROBES).map(|p| p.secs).collect();
        }
        at_reference(span.secs(), median(&during))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probes at the given milliseconds, each taking `slowdown` times the
    /// reference time.
    fn speed(start: Instant, probes: &[(u64, f64)]) -> HostSpeed {
        HostSpeed {
            probes: probes
                .iter()
                .map(|&(ms, slowdown)| Probe {
                    at: start + Duration::from_millis(ms),
                    secs: slowdown * REFERENCE_PROBE_SECS,
                })
                .collect(),
        }
    }

    #[test]
    fn intervals_scale_by_the_probes_taken_during_them() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        // The host runs at reference speed for 100 ms, then at half speed.
        let host = speed(
            t0,
            &[
                (0, 1.0),
                (20, 1.0),
                (40, 1.0),
                (60, 1.0),
                (80, 1.0),
                (100, 2.0),
                (120, 2.0),
                (140, 2.0),
                (160, 2.0),
            ],
        );
        let fast = Interval {
            start: at(0),
            end: at(80),
        };
        assert!((host.scaled(fast) - 0.080).abs() < 1e-9);
        // Twice the wall time at half speed is the same work.
        let slow = Interval {
            start: at(100),
            end: at(260),
        };
        assert!((host.scaled(slow) - 0.080).abs() < 1e-9);
        // A short interval takes the probes nearest its middle.
        let short = Interval {
            start: at(125),
            end: at(135),
        };
        assert!((host.scaled(short) - 0.005).abs() < 1e-9);
        assert_eq!(at_reference(0.5, 0.0), 0.5);
    }

    #[test]
    fn the_meter_probes_until_finished() {
        let meter = HostMeter::start();
        std::thread::sleep(PERIOD * 3);
        let host = meter.finish();
        assert!(host.probes.len() >= 2, "{} probes", host.probes.len());
        assert!(host.probe_secs().all(|s| s > 0.0));
        let span = Interval::since(Instant::now() - Duration::from_millis(10));
        assert!(host.scaled(span) > 0.0);
    }
}
