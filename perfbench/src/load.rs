//! Seeded open-loop load generation.
//!
//! Arrivals follow a Poisson process drawn from the workload seed. A
//! fixed pool of client threads (never more than the host's cores)
//! works through the schedule: each request is sent at its scheduled
//! instant, or as soon as a client is free when all are busy. Latency
//! is timed from the scheduled instant, so a stall shows as queueing
//! delay on every later request, and the gap between the scheduled and
//! the actual send is reported as generator lateness.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::quantile;

/// SplitMix64: a small, fully seeded generator for load shapes.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Zipf(`s`) over `0..n`: rank `r` (0-based) drawn with weight
/// `1/(r+1)^s`, mapped through a seeded permutation so the hot users
/// are not simply the lowest ids.
pub struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, ids }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let r = self.cdf.partition_point(|&c| c < u).min(self.ids.len() - 1);
        self.ids[r]
    }
}

/// Poisson arrival offsets in `[0, duration)` at `rate` per second.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: Duration) -> Vec<Duration> {
    let end = duration.as_secs_f64();
    let mut t = rng.exp_gap(rate);
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 8);
    while t < end {
        out.push(Duration::from_secs_f64(t));
        t += rng.exp_gap(rate);
    }
    out
}

/// What one request did, with instants relative to the phase start.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    pub scheduled: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
}

impl Outcome {
    /// Scheduled instant → response, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.scheduled).as_secs_f64() * 1e3
    }

    /// Scheduled instant → actual send, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.sent.saturating_sub(self.scheduled)).as_secs_f64() * 1e3
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Runs `schedule` open-loop on `threads` client threads; `send(i)`
/// performs request `i` and returns its HTTP status (0 = transport
/// error). Returns the outcomes in schedule order.
pub fn run_open_loop(
    schedule: &[Duration],
    threads: usize,
    send: &(dyn Fn(usize) -> u16 + Sync),
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; schedule.len()]);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&at) = schedule.get(i) else {
                    return;
                };
                let now = t0.elapsed();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let sent = t0.elapsed();
                let status = send(i);
                let done = t0.elapsed();
                slots.lock().expect("outcome lock poisoned")[i] = Some(Outcome {
                    scheduled: at,
                    sent,
                    done,
                    status,
                });
            });
        }
    });
    slots
        .into_inner()
        .expect("outcome lock poisoned")
        .into_iter()
        .map(|o| o.expect("every scheduled request ran"))
        .collect()
}

/// Runs a closed loop for `duration` on `threads` client threads: each
/// sends `read(i)` (the `i`-th read overall) as soon as its previous
/// request finished, except that a request of the open-loop `side`
/// schedule that has fallen due is sent first. Returns the read and
/// side outcomes, each in completion order.
pub fn run_closed_loop(
    duration: Duration,
    threads: usize,
    read: &(dyn Fn(usize) -> u16 + Sync),
    side_schedule: &[Duration],
    side: &(dyn Fn(usize) -> u16 + Sync),
) -> (Vec<Outcome>, Vec<Outcome>) {
    let next_read = AtomicUsize::new(0);
    let next_side = AtomicUsize::new(0);
    let reads = Mutex::new(Vec::new());
    let sides = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let now = t0.elapsed();
                if now >= duration {
                    return;
                }
                let due = next_side.load(Ordering::Relaxed);
                if side_schedule.get(due).is_some_and(|&at| at <= now)
                    && next_side
                        .compare_exchange(due, due + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    let status = side(due);
                    let o = Outcome {
                        scheduled: side_schedule[due],
                        sent: now,
                        done: t0.elapsed(),
                        status,
                    };
                    sides.lock().expect("outcome lock poisoned").push(o);
                    continue;
                }
                let i = next_read.fetch_add(1, Ordering::Relaxed);
                let status = read(i);
                let o = Outcome {
                    scheduled: now,
                    sent: now,
                    done: t0.elapsed(),
                    status,
                };
                reads.lock().expect("outcome lock poisoned").push(o);
            });
        }
    });
    (
        reads.into_inner().expect("outcome lock poisoned"),
        sides.into_inner().expect("outcome lock poisoned"),
    )
}

/// Summary of one open-loop phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSummary {
    pub attempted: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub late_p99_ms: f64,
}

pub fn summarize(outcomes: &[Outcome]) -> PhaseSummary {
    let lat: Vec<f64> = outcomes.iter().map(Outcome::latency_ms).collect();
    let late: Vec<f64> = outcomes.iter().map(Outcome::late_ms).collect();
    PhaseSummary {
        attempted: outcomes.len(),
        failed: outcomes.iter().filter(|o| !o.ok()).count(),
        p50_ms: quantile(&lat, 0.5),
        p99_ms: quantile(&lat, 0.99),
        late_p99_ms: quantile(&late, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 500.0, Duration::from_secs(2));
        let b = poisson_schedule(&mut Rng::new(7, 1), 500.0, Duration::from_secs(2));
        let c = poisson_schedule(&mut Rng::new(8, 1), 500.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // ~1000 arrivals, well inside 5 sigma.
        assert!((850..1150).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zipf_prefers_its_head() {
        let mut rng = Rng::new(3, 0);
        let z = Zipf::new(1000, 1.1, &mut rng);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let head = counts[z.ids[0] as usize];
        let tail = counts[z.ids[999] as usize];
        assert!(head > 50 * tail.max(1), "head {head} tail {tail}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1, 2);
        assert!((0..10_000).all(|_| rng.below(17) < 17));
    }

    #[test]
    fn open_loop_times_from_the_schedule() {
        let schedule: Vec<Duration> = (0..6).map(|i| Duration::from_millis(5 * i)).collect();
        let out = run_open_loop(&schedule, 2, &|i| if i == 3 { 503 } else { 200 });
        assert_eq!(out.len(), 6);
        assert!(out
            .iter()
            .all(|o| o.done >= o.sent && o.sent >= o.scheduled));
        let s = summarize(&out);
        assert_eq!((s.attempted, s.failed), (6, 1));
    }
}
