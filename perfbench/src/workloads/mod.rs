//! The four workloads and what they share: the run record, set-up
//! timing, the Yelp artifact, and the open-loop read phases.

pub mod beam;
pub mod fleet;
pub mod ingest;
pub mod train;

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use taxorec_core::{FitControl, TaxoRec, TaxoRecConfig};
use taxorec_data::{generate, Dataset, Preset, Scale, Split, SynthConfig};
use taxorec_serve::{Checkpoint, Ranking, RetrievalMode, ServingModel};

use crate::load::{self, Outcome, PhaseSummary, Rng};
use crate::spans;
use crate::stats::{self, Metrics};

/// How many undisturbed set-up builds each workload times at least;
/// `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Client threads of every load generator: the host's cores.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything one invocation measures and checks.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// End-to-end metrics (reported with `--trace 0`).
    pub e2e: Metrics,
    /// Per-layer metrics (reported with `--trace 1`).
    pub layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks: description and verdict.
    pub checks: Vec<(String, bool)>,
    /// Workload parameters, recorded in the run header.
    pub params: Vec<(&'static str, String)>,
    /// Share of CPU time stolen by the hypervisor during each attempt of
    /// each timed phase.
    pub steal: Vec<f64>,
}

impl Run {
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        if !ok {
            eprintln!("perfbench: correctness check failed: {what}");
        }
        self.checks.push((what, ok));
    }

    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    /// A seed for one purpose, derived from the workload seed.
    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed, stream)
    }

    /// Set-up builds of this run: several when `setup_s` is reported,
    /// one in the traced run, which does not report it.
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// A set-up faster than this is repeated until its undisturbed repeats
/// add up to it, so that the median samples seconds of a shared host's
/// drifting core speed.
const MIN_SETUP_TOTAL_S: f64 = 3.0;
/// Builds stop at whichever comes first once `repeats` have run: this
/// many builds, or this much build time, disturbed ones included.
const MAX_SETUP_REPEATS: usize = 600;
const MAX_SETUP_TOTAL_S: f64 = 30.0;

/// Builds the set-up at least `repeats` times (more when it is fast),
/// dropping each before the next, and keeps the last. Returns it with
/// the median build time over the builds during which the hypervisor
/// stole at most `STEAL_LIMIT` of the machine's CPU time; a build with
/// more steal is discarded and built again, within the caps above (when
/// every build was disturbed, all of them count). A single build (the
/// traced run, which does not report `setup_s`) is never repeated.
pub fn timed_setup<T>(repeats: usize, build: impl FnMut() -> T) -> (T, f64) {
    let (kept, setup_s, _) = measured_setups(repeats, build, |_| ());
    (kept, setup_s)
}

/// `timed_setup` that also runs `measure` on every build, untimed, before
/// the next replaces it, and returns each build's measurement. A serve
/// workload's phases sample every build this way: on a 2-core host, the
/// same short read phase on successive builds in one process moved its
/// p50 by ±10%, so one build per run set the run's figure.
pub fn measured_setups<T, M>(
    repeats: usize,
    mut build: impl FnMut() -> T,
    mut measure: impl FnMut(&T) -> M,
) -> (T, f64, Vec<M>) {
    let repeats = repeats.max(1);
    let mut measured = Vec::new();
    let (mut clean, mut all): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut kept: Option<T> = None;
    let enough = |clean: &[f64]| {
        clean.len() >= repeats && (repeats == 1 || clean.iter().sum::<f64>() >= MIN_SETUP_TOTAL_S)
    };
    let capped = |all: &[f64]| {
        all.len() >= repeats
            && (repeats == 1
                || all.len() >= MAX_SETUP_REPEATS
                || all.iter().sum::<f64>() >= MAX_SETUP_TOTAL_S)
    };
    while !enough(&clean) && !capped(&all) {
        drop(kept.take());
        let (s0, c0) = cpu_ticks();
        let t0 = Instant::now();
        kept = Some(build());
        let secs = t0.elapsed().as_secs_f64();
        let (s1, c1) = cpu_ticks();
        all.push(secs);
        if stats::ratio(s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64) <= STEAL_LIMIT {
            clean.push(secs);
        }
        measured.push(measure(kept.as_ref().expect("just built")));
    }
    let times = if clean.is_empty() { &all } else { &clean };
    eprintln!(
        "perfbench: set-up x{} ({} undisturbed): min {:.4} s, median {:.4} s, max {:.4} s",
        all.len(),
        clean.len(),
        stats::quantile(times, 0.0),
        stats::median(times),
        stats::quantile(times, 1.0)
    );
    (
        kept.expect("at least one set-up"),
        stats::median(times),
        measured,
    )
}

/// A timed phase during which the hypervisor stole more than this share
/// of the machine's CPU time is run again.
const STEAL_LIMIT: f64 = 0.03;
/// Attempts per timed phase, the first included. Two bound a run's time
/// even when every phase is retried.
const QUIET_TRIES: usize = 2;

/// Stolen and total CPU ticks of the machine (`/proc/stat`); zeros where
/// the kernel does not report them.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // cpu user nice system idle iowait irq softirq steal guest guest_nice
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}

/// Runs a timed phase, and runs it again (up to `QUIET_TRIES` attempts)
/// while the hypervisor stole more than `STEAL_LIMIT` of the machine's
/// CPU time during it: a neighbour's load on a shared host otherwise
/// moves whole runs by tens of percent. Keeps the attempt with the least
/// steal. `phase(run, attempt)` draws its inputs from the attempt number,
/// so a seed fixes every attempt's inputs.
pub fn quiet_phase<T>(run: &mut Run, what: &str, mut phase: impl FnMut(&mut Run, u64) -> T) -> T {
    let mut best: Option<(T, f64)> = None;
    for attempt in 0..QUIET_TRIES as u64 {
        let (s0, t0) = cpu_ticks();
        let out = phase(run, attempt);
        let (s1, t1) = cpu_ticks();
        let steal = stats::ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64);
        eprintln!(
            "perfbench: {what} attempt {attempt}: {:.1}% of CPU time stolen",
            steal * 100.0
        );
        run.steal.push(steal);
        if best.as_ref().is_none_or(|b| steal < b.1) {
            best = Some((out, steal));
        }
        if steal <= STEAL_LIMIT {
            break;
        }
    }
    best.expect("at least one attempt").0
}

/// The address every server binds: an ephemeral loopback port.
pub const BIND_ADDR: &str = "127.0.0.1:0";

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Synthetic Yelp at full scale (4000 users, 4800 items, 124 tags),
/// generated from the workload seed.
pub fn yelp(seed: u64) -> (Dataset, Split) {
    let config = SynthConfig {
        seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(11),
        ..SynthConfig::preset(Preset::Yelp, Scale::Full)
    };
    let dataset = generate(&config);
    let split = Split::standard(&dataset);
    (dataset, split)
}

/// Epochs of the artifact the serve workloads load: two is the smallest
/// budget whose fit builds a taxonomy (warm-up, one in-loop rebuild, the
/// final rebuild), which ingestion grafts new tags into.
pub const ARTIFACT_EPOCHS: usize = 2;

/// Trains the default-dimension model briefly and freezes it with its
/// dataset context.
pub fn yelp_artifact(dataset: &Dataset, split: &Split) -> Checkpoint {
    let mut model = TaxoRec::new(TaxoRecConfig {
        epochs: ARTIFACT_EPOCHS,
        ..TaxoRecConfig::default()
    });
    model.fit_controlled(dataset, split, FitControl::default());
    Checkpoint::from_model(&model)
        .with_dataset(dataset)
        .with_seen_items(&split.train)
}

/// The `/recommend` body the server emits for a ranking. The server's
/// own builder is private, so this spells out the wire format; a drift
/// on either side fails the body checks.
pub fn recommend_body(user: u32, k: usize, items: &Ranking) -> Vec<u8> {
    let mut body = format!("{{\"user\":{user},\"k\":{k},\"items\":[");
    for (i, &(item, score)) in items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"item\":{item},\"score\":"));
        taxorec_telemetry::json::push_f64(&mut body, score);
        body.push('}');
    }
    body.push_str("]}");
    body.into_bytes()
}

/// Parses the item ids out of a `/recommend` body.
pub fn body_items(body: &[u8]) -> Vec<u32> {
    let text = String::from_utf8_lossy(body);
    text.split("\"item\":")
        .skip(1)
        .filter_map(|s| {
            let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
            s[..end].parse().ok()
        })
        .collect()
}

/// Recall@k of `served` against the exhaustive top-k `exact`.
pub fn overlap_recall(served: &[u32], exact: &[u32]) -> f64 {
    let hit = served.iter().filter(|v| exact.contains(v)).count();
    stats::ratio(hit as f64, exact.len() as f64)
}

/// One open-loop phase of `GET /recommend` reads: arrival `i` at
/// `schedule[i]` asks for `keys[i]` (user, k).
pub struct Reads<'a> {
    pub addr: SocketAddr,
    pub keys: &'a [(u32, usize)],
    pub schedule: &'a [Duration],
}

impl Reads<'_> {
    /// Runs the phase; also returns the bodies of the arrivals `keep`
    /// selects, for checking.
    pub fn run(
        &self,
        keep: &(dyn Fn(usize) -> bool + Sync),
    ) -> (Vec<Outcome>, Vec<(usize, Vec<u8>)>) {
        let kept = std::sync::Mutex::new(Vec::new());
        let outcomes = load::run_open_loop(self.schedule, client_threads(), &|i| {
            let (user, k) = self.keys[i];
            let _g = spans::span("loadgen.read");
            let (status, body) =
                crate::http::get(self.addr, &format!("/recommend?user={user}&k={k}"));
            if keep(i) {
                kept.lock().expect("body lock poisoned").push((i, body));
            }
            status
        });
        (outcomes, kept.into_inner().expect("body lock poisoned"))
    }
}

/// Capacity search settings of a serve workload: a geometric ladder of
/// open-loop read rates, each run for `step`.
pub struct Ladder {
    pub start: f64,
    pub factor: f64,
    pub rungs: usize,
    pub step: Duration,
    /// p99 latency limit (from the scheduled instant).
    pub p99_limit_ms: f64,
}

/// One ladder step's traffic: read outcomes and the outcomes of any
/// other requests sent alongside.
pub type Step = (Vec<Outcome>, Vec<Outcome>);

/// Highest read rate on the ladder whose p99 meets the limit with no
/// failed request and no growing backlog. `step(rate, duration)` runs
/// one seeded open-loop phase at `rate`.
pub fn read_capacity(
    run: &mut Run,
    ladder: &Ladder,
    mut step: impl FnMut(f64, Duration) -> Step,
) -> f64 {
    let rates = stats::geometric_ladder(ladder.start, ladder.factor, ladder.rungs);
    let mut probed = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let cap = stats::search_capacity(&rates, ladder.p99_limit_ms, &mut probed, |rate| {
        let (reads, others) = step(rate, ladder.step);
        let s = load::summarize(&reads);
        let other_failed = others.iter().filter(|o| !o.ok()).count();
        attempted += (s.attempted + others.len()) as u64;
        failed += (s.failed + other_failed) as u64;
        // A backlog that grows shows as requests finishing well after
        // the phase's last scheduled arrival; such a step fails even
        // when its p99 squeaks under the limit.
        let limit = ladder.step + Duration::from_secs_f64(ladder.p99_limit_ms / 1e3);
        let drained = reads.iter().chain(&others).all(|o| o.done <= limit);
        let tail = if s.failed + other_failed > 0 {
            f64::INFINITY
        } else if drained {
            s.p99_ms
        } else {
            s.p99_ms.max(ladder.p99_limit_ms * 1.01)
        };
        eprintln!(
            "perfbench: ladder {rate:.0}/s: {} reads, p50 {:.3} ms, p99 {:.3} ms, \
             late p99 {:.3} ms, {} failed, drained {drained}",
            s.attempted,
            s.p50_ms,
            s.p99_ms,
            s.late_p99_ms,
            s.failed + other_failed
        );
        tail
    });
    run.attempted += attempted;
    run.failed += failed;
    // The ladder starts far below any healthy capacity; if its first
    // rungs fail, report half the first rung rather than zero.
    let cap = cap.unwrap_or(ladder.start * 0.5);
    eprintln!("perfbench: read capacity {cap:.1}/s");
    cap
}

/// Completed reads per second with every client thread kept busy
/// (closed loop) for `duration`, cycling through `keys`, while the
/// open-loop `side` requests (if any) go out as they fall due. Failed
/// reads do not count as completed. Returns the rate and the side
/// outcomes.
pub fn read_throughput(
    run: &mut Run,
    addr: SocketAddr,
    keys: &[(u32, usize)],
    duration: Duration,
    side_schedule: &[Duration],
    side: &(dyn Fn(usize) -> u16 + Sync),
) -> (f64, Vec<Outcome>) {
    let (reads, sides) = load::run_closed_loop(
        duration,
        client_threads(),
        &|i| {
            let (user, k) = keys[i % keys.len()];
            crate::http::get(addr, &format!("/recommend?user={user}&k={k}")).0
        },
        side_schedule,
        side,
    );
    let ok = reads.iter().filter(|o| o.ok()).count();
    run.attempted += (reads.len() + sides.len()) as u64;
    run.failed += (reads.len() - ok + sides.iter().filter(|o| !o.ok()).count()) as u64;
    // The median over fixed windows, so one stall does not set the rate.
    let windows = (duration.as_secs_f64() / THROUGHPUT_WINDOW_S)
        .floor()
        .max(1.0) as usize;
    let mut per_window = vec![0.0; windows];
    for o in reads.iter().filter(|o| o.ok()) {
        let w = (o.done.as_secs_f64() / THROUGHPUT_WINDOW_S) as usize;
        if let Some(n) = per_window.get_mut(w) {
            *n += 1.0;
        }
    }
    let per_s = stats::median(&per_window) / THROUGHPUT_WINDOW_S;
    eprintln!(
        "perfbench: closed-loop throughput {per_s:.1} reads/s ({} reads, {} side requests)",
        reads.len(),
        sides.len()
    );
    (per_s, sides)
}

/// The closed-loop read throughput of a serve workload with no other
/// traffic over `span`, as a quiet phase whose attempts each draw fresh
/// keys.
pub fn quiet_throughput(
    run: &mut Run,
    addr: SocketAddr,
    span: Duration,
    draw: &mut dyn FnMut(&mut Rng) -> (u32, usize),
) -> f64 {
    let seed = run.seed;
    quiet_phase(run, "closed loop", |run, attempt| {
        let mut rng = Rng::new(seed, 0xC105 + attempt);
        let keys: Vec<_> = (0..THROUGHPUT_KEYS).map(|_| draw(&mut rng)).collect();
        read_throughput(run, addr, &keys, span, &[], &|_| 0).0
    })
}

/// Share of a run's `--seconds` spent on the closed-loop throughput
/// phase, and the keys drawn for it (cycled if the phase outruns them).
pub const THROUGHPUT_SHARE: f64 = 0.3;
pub const THROUGHPUT_KEYS: usize = 50_000;
/// Completions are counted per window of this length.
const THROUGHPUT_WINDOW_S: f64 = 0.25;

/// A read phase at `rate` for `duration` over keys from `draw`.
pub fn read_step(
    addr: SocketAddr,
    rng: &mut Rng,
    draw: &mut dyn FnMut(&mut Rng) -> (u32, usize),
    rate: f64,
    duration: Duration,
) -> Step {
    let schedule = load::poisson_schedule(rng, rate, duration);
    let keys: Vec<(u32, usize)> = schedule.iter().map(|_| draw(rng)).collect();
    let (out, _) = Reads {
        addr,
        keys: &keys,
        schedule: &schedule,
    }
    .run(&|_| false);
    (out, Vec::new())
}

/// Adds a phase's requests to the run's totals and summarises them.
pub fn tally(run: &mut Run, out: &[Outcome]) -> PhaseSummary {
    let s = load::summarize(out);
    run.attempted += s.attempted as u64;
    run.failed += s.failed as u64;
    s
}

/// Records the load-generator diagnostics of a phase.
pub fn record_loadgen(layer: &mut Metrics, s: &PhaseSummary) {
    layer.set("loadgen.late_p99_ms", s.late_p99_ms, "ms");
    layer.set("loadgen.read_p99_ms", s.p99_ms, "ms");
}

/// Median round trip of `n` direct `GET path` requests, microseconds.
pub fn round_trip_us(addr: SocketAddr, path: &str, n: usize) -> f64 {
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let (status, _) = crate::http::get(addr, path);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(status, 200, "probe {path} failed");
    }
    stats::median(&us)
}

/// Median time of `n` calls to `f`, microseconds, each inside a span.
pub fn probe_us(name: &'static str, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut us = Vec::with_capacity(n);
    for i in 0..n {
        let _g = spans::span(name);
        let t0 = Instant::now();
        f(i);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&us)
}

/// `ServingModel::recommend` (miss), `cached` (hit) and
/// `recommend_batch` of 32 users, per user, on a fresh engine.
pub fn model_probes(
    layer: &mut Metrics,
    ckpt: &Checkpoint,
    mode: RetrievalMode,
    seed: u64,
    k: usize,
) {
    let engine = || {
        ServingModel::new(ckpt.clone())
            .and_then(|m| m.with_retrieval(mode))
            .expect("probe engine")
    };
    let model = engine();
    let n = model.n_users();
    let mut rng = Rng::new(seed, 0x9B0B);
    let users: Vec<u32> = (0..64).map(|_| rng.below(n) as u32).collect();
    let miss = probe_us("serve.model.recommend", users.len(), |i| {
        std::hint::black_box(model.recommend(users[i], k).expect("probe recommend"));
    });
    let hit = probe_us("serve.model.cached", users.len(), |i| {
        std::hint::black_box(model.cached(users[i], k));
    });
    // Distinct users per batch on a fresh engine, so every batch scores.
    let fresh = engine();
    let batches: Vec<Vec<u32>> = (0..5)
        .map(|_| (0..32).map(|_| rng.below(n) as u32).collect())
        .collect();
    let batch_us = probe_us("serve.model.recommend_batch", batches.len(), |i| {
        std::hint::black_box(fresh.recommend_batch(&batches[i], k));
    });
    layer.set("serve.model.miss_us", miss, "us");
    layer.set("serve.model.hit_us", hit, "us");
    layer.set("serve.model.batch32_us", batch_us / 32.0, "us");
}

/// `Checkpoint::to_bytes` / `from_bytes` of an artifact.
pub fn checkpoint_probes(layer: &mut Metrics, ckpt: &Checkpoint) {
    let mut bytes = Vec::new();
    let enc = probe_us("serve.checkpoint.to_bytes", 3, |_| bytes = ckpt.to_bytes());
    let dec = probe_us("serve.checkpoint.from_bytes", 3, |_| {
        std::hint::black_box(Checkpoint::from_bytes(&bytes).expect("artifact decodes"));
    });
    layer.set("serve.checkpoint.encode_ms", enc / 1e3, "ms");
    layer.set("serve.checkpoint.decode_ms", dec / 1e3, "ms");
}

/// Serve-side registry deltas shared by every serve workload.
pub fn serve_registry(layer: &mut Metrics, d: &crate::reg::Delta) {
    let hits = d.count("serve.cache.hit");
    let misses = d.count("serve.cache.miss");
    layer.set("serve.cache.hits", hits, "count");
    layer.set("serve.cache.misses", misses, "count");
    layer.set(
        "serve.cache.hit_frac",
        stats::ratio(hits, hits + misses),
        "ratio",
    );
    let batches = d.count("serve.batch.batches");
    let requests = d.count("serve.batch.requests");
    layer.set("serve.batch.batches", batches, "count");
    layer.set("serve.batch.requests", requests, "count");
    layer.set(
        "serve.batch.size_mean",
        stats::ratio(requests, batches),
        "count",
    );
    layer.set(
        "serve.batch.wait_ms",
        d.hist_quantile("serve.batch.wait_ms", 0.5),
        "ms",
    );
    layer.set("serve.http.shed", d.count("serve.http.shed"), "count");
    layer.set("serve.batch.shed", d.count("serve.batch.shed"), "count");
    let queries = d.hist_count("serve.retrieval.routed_ms");
    layer.set("retrieval.queries", queries, "count");
    layer.set(
        "retrieval.candidates_mean",
        stats::ratio(d.count("serve.retrieval.candidates"), queries),
        "count",
    );
}

/// Keeps one arrival in `every` for body checks, chosen by seed.
pub fn sampled(seed: u64, every: u64) -> impl Fn(usize) -> bool + Sync {
    move |i| Rng::new(seed, i as u64).next_u64().is_multiple_of(every)
}

/// Compares served bodies with the in-process answers of `reference`.
/// Returns (checked, mismatched).
pub fn compare_bodies(
    reference: &ServingModel,
    keys: &[(u32, usize)],
    bodies: &[(usize, Vec<u8>)],
) -> (usize, usize) {
    let mut bad = 0;
    for (i, body) in bodies {
        let (user, k) = keys[*i];
        let expected = reference.recommend(user, k).expect("reference answer");
        if recommend_body(user, k, &expected) != *body {
            bad += 1;
        }
    }
    (bodies.len(), bad)
}

/// Spans of a traced phase: median self time per name into `layer`,
/// and the spans written under `.perfbench_out/`.
pub fn finish_spans(run: &Run, workload: &str) -> spans::SelfTimes {
    let all = spans::take();
    let selft = spans::SelfTimes::from_spans(&all);
    let path = std::path::PathBuf::from(".perfbench_out")
        .join(format!("{workload}-seed{}-spans.jsonl", run.seed));
    match spans::write(&path, &all, &selft) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            all.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: writing {} failed: {e}", path.display()),
    }
    for (name, v) in &selft.by_name {
        let us: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e3).collect();
        eprintln!(
            "perfbench: self time {name:<34} n={:<6} median {:>10.1} us  total {:>10.1} ms",
            v.len(),
            stats::median(&us),
            us.iter().sum::<f64>() / 1e3
        );
    }
    selft
}
