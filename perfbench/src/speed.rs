//! Machine-speed normalization.
//!
//! On a shared VM the speed of the whole machine drifts by ±15 % over
//! tens of seconds (measured while writing this benchmark: sweep rounds
//! of one unchanged build took 3.3–4.8 s within one minute, with no
//! steal time reported). Every timed figure of a run therefore moves
//! together, and no estimator over one run can remove it. The benchmark
//! instead times a fixed reference computation of its own, interleaved
//! with the measured work, and scales each timed end-to-end figure by
//! `NOMINAL_MS / median(reference time around it)`: the figure the run
//! would have read at the machine's nominal speed. The reference is
//! part of the benchmark, never of the program, so no change to the
//! program can speed it up or slow it down.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::median;

/// Median duration of [`reference_work`] on the 2-core VM where the
/// benchmark was calibrated, in milliseconds.
pub const NOMINAL_MS: f64 = 0.5;

/// Reference samples in one [`Probe::burst`].
const BURST: usize = 5;

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs()
}

/// A fixed computation with the scheduler's profile (exact `i128`
/// elimination with gcd row normalization, small allocations, ordered
/// map inserts), about half a millisecond long. Returns a checksum so
/// the work cannot be optimized away.
pub fn reference_work() -> i128 {
    let mut state = black_box(0x5eed_u64);
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % 19) as i128 - 9
    };
    let n = 9;
    let mut checksum = 0i128;
    let mut kept = BTreeMap::new();
    for rep in 0..15 {
        let mut m: Vec<Vec<i128>> = (0..n).map(|_| (0..=n).map(|_| next()).collect()).collect();
        for k in 0..n {
            let Some(p) = (k..n).find(|&r| m[r][k] != 0) else {
                continue;
            };
            m.swap(k, p);
            for r in 0..n {
                if r == k || m[r][k] == 0 {
                    continue;
                }
                let (a, b) = (m[k][k], m[r][k]);
                let row: Vec<i128> = m[r].iter().zip(&m[k]).map(|(x, y)| a * x - b * y).collect();
                let g = row.iter().fold(0, |g, &v| gcd(g, v)).max(1);
                m[r] = row.into_iter().map(|v| v / g).collect();
            }
        }
        for (i, row) in m.into_iter().enumerate() {
            checksum = checksum.wrapping_add(row[n]);
            kept.insert((rep, i), row);
        }
    }
    black_box(checksum + kept.len() as i128)
}

/// A helper thread that times [`reference_work`] whenever the probe
/// asks, in lockstep with the probe's own thread.
#[derive(Debug)]
struct Twin {
    go: Option<Sender<()>>,
    done: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Twin {
    fn spawn() -> Twin {
        let (go, go_rx) = channel::<()>();
        let (done_tx, done) = channel();
        let thread = std::thread::spawn(move || {
            while go_rx.recv().is_ok() {
                if done_tx.send(time_reference()).is_err() {
                    break;
                }
            }
        });
        Twin {
            go: Some(go),
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for Twin {
    fn drop(&mut self) {
        self.go.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn time_reference() -> f64 {
    let t0 = Instant::now();
    black_box(reference_work());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Reference timings taken during one measured phase, each stamped with
/// when it finished.
#[derive(Debug)]
pub struct Probe {
    start: Instant,
    /// `(seconds since start, milliseconds taken)`.
    samples: Vec<(f64, f64)>,
    twin: Option<Twin>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            start: Instant::now(),
            samples: Vec::new(),
            twin: None,
        }
    }
}

impl Probe {
    /// A probe that times the reference on two threads at once, so both
    /// CPUs of a 2-core machine are sampled. Two concurrent threads can
    /// see speeds 30% apart over half a second, so work spread over
    /// both CPUs, such as a daemon's, needs both.
    pub fn on_two_cpus() -> Probe {
        Probe {
            twin: Some(Twin::spawn()),
            ..Probe::default()
        }
    }

    /// Seconds since the probe was created: the time base of
    /// [`Probe::factor_between`].
    pub fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Times one [`reference_work`] (one on each thread for a
    /// two-CPU probe).
    pub fn sample(&mut self) {
        let asked = self
            .twin
            .as_ref()
            .and_then(|t| t.go.as_ref())
            .is_some_and(|go| go.send(()).is_ok());
        let ms = time_reference();
        let other = self
            .twin
            .as_ref()
            .filter(|_| asked)
            .and_then(|t| t.done.recv().ok());
        let at = self.now_s();
        self.samples.push((at, ms));
        if let Some(other) = other {
            self.samples.push((at, other));
        }
    }

    /// Times a few [`reference_work`]s back to back.
    pub fn burst(&mut self) {
        for _ in 0..BURST {
            self.sample();
        }
    }

    /// Median reference time over the whole phase, milliseconds
    /// (`NOMINAL_MS` if none was taken).
    pub fn reference_ms(&self) -> f64 {
        if self.samples.is_empty() {
            return NOMINAL_MS;
        }
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Scale factor to nominal speed over the whole phase: multiply a
    /// duration by it, divide a rate by it.
    pub fn factor(&self) -> f64 {
        NOMINAL_MS / self.reference_ms()
    }

    /// Scale factor to nominal speed for work done between `from_s` and
    /// `to_s`: from the samples taken in that interval, or the nearest
    /// one on each side when none was. The machine's speed also varies
    /// within a second, and a local factor cancels about half of the
    /// per-sample spread that a whole-phase factor leaves (measured on
    /// the sweep: log-sd of a scenario's compile times 0.21 → 0.11).
    pub fn factor_between(&self, from_s: f64, to_s: f64) -> f64 {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| *at >= from_s && *at <= to_s)
            .map(|s| s.1)
            .collect();
        let near = if inside.is_empty() {
            let before = self.samples.iter().rev().find(|(at, _)| *at < from_s);
            let after = self.samples.iter().find(|(at, _)| *at > to_s);
            before.iter().chain(after.iter()).map(|s| s.1).collect()
        } else {
            inside
        };
        if near.is_empty() {
            self.factor()
        } else {
            NOMINAL_MS / median(&near)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_factor_uses_the_samples_around_the_interval() {
        let probe = Probe {
            samples: vec![(1.0, 1.0), (2.0, 0.25), (3.0, 0.5)],
            ..Probe::default()
        };
        assert_eq!(probe.factor_between(1.5, 2.5), 2.0);
        assert_eq!(
            probe.factor_between(1.2, 1.4),
            NOMINAL_MS / median(&[1.0, 0.25])
        );
        assert_eq!(probe.factor(), 1.0);
    }

    #[test]
    fn a_two_cpu_probe_takes_two_samples_at_a_time() {
        let mut probe = Probe::on_two_cpus();
        probe.burst();
        assert_eq!(probe.samples.len(), 2 * BURST);
        assert!(probe.reference_ms() > 0.0);
    }
}
