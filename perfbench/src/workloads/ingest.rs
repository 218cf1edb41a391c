//! `ingest-mixed`: one `serve_online` shard on the Yelp artifact with
//! default ingestion options (1 s tick), read by uniform users while
//! `POST /ingest` batches — including never-seen users, items and tags —
//! arrive on their own Poisson clock.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use taxorec_serve::{
    fold_batch, parse_ingest_body, serve_online, Checkpoint, IngestInteraction, IngestOptions,
    RetrievalMode, ServeOptions, ServerHandle, ServingModel,
};

use super::{
    checkpoint_probes, client_threads, finish_spans, model_probes, peak_rss_mb, probe_us,
    quiet_phase, read_capacity, read_throughput, recommend_body, record_loadgen, round_trip_us,
    serve_registry, tally, timed_setup, yelp, yelp_artifact, Ladder, Run, BIND_ADDR,
    THROUGHPUT_KEYS, THROUGHPUT_SHARE,
};
use crate::load::{self, Outcome, Rng};
use crate::reg::{Delta, Snapshot};
use crate::spans;
use crate::stats::{median, quantile, ratio};

const K: usize = 10;
/// Median `read.capacity_per_s` of three traced runs (seeds 31-33) on a
/// 2-core host, measured with ingestion flowing at `INGEST_RATE`. The
/// base open-loop read rate is a quarter of it: far below the knee, so
/// the median read is service time, not queueing.
const MEASURED_CAPACITY: f64 = 782.0;
const READ_RATE: f64 = MEASURED_CAPACITY / 4.0;
/// `POST /ingest` batches per second and interactions per batch, in the
/// shape `taxorec-loadgen --ingest` sends: one arrival in four is a
/// batch of eight interactions of one user.
const INGEST_RATE: f64 = READ_RATE / 3.0;
const BATCH: usize = 8;
/// Chance that a batch's user, an interaction's item, or an
/// interaction's extra tag is never-seen: the share of never-seen tags
/// `taxorec-loadgen --ingest` sends, applied to users and items too.
const NEW_SHARE: f64 = 1.0 / 64.0;
/// Longest wait for the updater to fold every accepted interaction.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(15);
const LADDER: Ladder = Ladder {
    start: 200.0,
    factor: 1.2,
    rungs: 14,
    step: Duration::from_millis(500),
    p99_limit_ms: 50.0,
};

struct Shard {
    server: ServerHandle,
    ckpt: Checkpoint,
}

fn start(seed: u64) -> Shard {
    let (dataset, split) = yelp(seed);
    let bytes = yelp_artifact(&dataset, &split).to_bytes();
    let ckpt = Checkpoint::from_bytes(&bytes).expect("artifact decodes");
    let model = ServingModel::new(ckpt.clone()).expect("artifact loads");
    let server = serve_online(
        Arc::new(model),
        ckpt.clone(),
        BIND_ADDR,
        ServeOptions::default(),
    )
    .expect("online shard starts");
    Shard { server, ckpt }
}

/// Generates ingest batches: seeded contents, with never-seen ids
/// numbered in journal order (batches are sent one at a time).
struct Writer {
    n_users: u32,
    n_items: u32,
    tag_names: Vec<String>,
    next_user: u32,
    next_item: u32,
    next_tag: u32,
    /// Interactions accepted so far: the journal position of the last
    /// acknowledged batch.
    accepted: u64,
    /// Bodies of the accepted batches, in journal order.
    bodies: Vec<String>,
    /// (journal position after the batch, ack instant) per batch.
    acks: Vec<(u64, Instant)>,
}

impl Writer {
    /// A writer whose never-seen ids start just past `ckpt`'s.
    fn new(ckpt: &Checkpoint) -> Self {
        let (n_users, n_items) = (ckpt.state.n_users() as u32, ckpt.state.n_items() as u32);
        Writer {
            n_users,
            n_items,
            tag_names: ckpt.tag_names.clone(),
            next_user: n_users,
            next_item: n_items,
            next_tag: 0,
            accepted: 0,
            bodies: Vec::new(),
            acks: Vec::new(),
        }
    }

    fn body(&mut self, rng: &mut Rng) -> String {
        let mut body = String::from("{\"interactions\":[");
        let user = if rng.unit() < NEW_SHARE {
            self.next_user += 1;
            self.next_user - 1
        } else {
            rng.below(self.n_users as usize) as u32
        };
        for j in 0..BATCH {
            if j > 0 {
                body.push(',');
            }
            let item = if rng.unit() < NEW_SHARE {
                self.next_item += 1;
                self.next_item - 1
            } else {
                rng.below(self.n_items as usize) as u32
            };
            let mut tags = vec![self.tag_names[rng.below(self.tag_names.len())].clone()];
            if rng.unit() < NEW_SHARE {
                tags.push(format!("fresh-tag-{}", self.next_tag));
                self.next_tag += 1;
            }
            let tags: Vec<String> = tags.iter().map(|t| format!("\"{t}\"")).collect();
            body.push_str(&format!(
                "{{\"user\":{user},\"item\":{item},\"tags\":[{}]}}",
                tags.join(",")
            ));
        }
        body.push_str("]}");
        body
    }
}

/// Samples the served model's journal cursor until stopped:
/// (instant, cursor) at every change.
fn watch(server: &ServerHandle, stop: &AtomicBool) -> Vec<(Instant, u64)> {
    let slot = server.model_slot();
    let mut seen = Vec::new();
    let mut last = u64::MAX;
    while !stop.load(Ordering::Relaxed) {
        let cursor = slot.load().journal_cursor().unwrap_or(0);
        if cursor != last {
            seen.push((Instant::now(), cursor));
            last = cursor;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    seen
}

/// Posts one seeded ingest batch, one at a time across client threads
/// so the journal position of every ack is known.
fn send_batch(addr: std::net::SocketAddr, writer: &Mutex<Writer>, seed: u64) -> u16 {
    let _g = spans::span("loadgen.ingest");
    let mut w = writer.lock().expect("writer lock poisoned");
    let body = w.body(&mut Rng::new(seed, 0));
    let (status, _) = crate::http::post_json(addr, "/ingest", &body);
    if status == 202 {
        w.accepted += BATCH as u64;
        let pos = w.accepted;
        w.acks.push((pos, Instant::now()));
        w.bodies.push(body);
    }
    status
}

/// One mixed phase: reads at `read_rate` and ingest batches at
/// `INGEST_RATE`, merged into one open-loop schedule on the client
/// threads. Returns (read outcomes, ingest outcomes).
fn mixed(
    addr: std::net::SocketAddr,
    writer: &Mutex<Writer>,
    rng: &mut Rng,
    read_rate: f64,
    duration: Duration,
) -> (Vec<Outcome>, Vec<Outcome>) {
    let reads = load::poisson_schedule(rng, read_rate, duration);
    let writes = load::poisson_schedule(rng, INGEST_RATE, duration);
    // (instant, read key or None for an ingest batch, per-batch seed)
    let mut arrivals: Vec<(Duration, Option<u32>, u64)> = Vec::new();
    let n_users = writer.lock().expect("writer lock poisoned").n_users as usize;
    arrivals.extend(
        reads
            .iter()
            .map(|&t| (t, Some(rng.below(n_users) as u32), 0)),
    );
    arrivals.extend(writes.iter().map(|&t| (t, None, rng.next_u64())));
    arrivals.sort_by_key(|a| a.0);
    let schedule: Vec<Duration> = arrivals.iter().map(|a| a.0).collect();
    let out = load::run_open_loop(&schedule, client_threads(), &|i| match arrivals[i].1 {
        Some(user) => {
            let _g = spans::span("loadgen.read");
            crate::http::get(addr, &format!("/recommend?user={user}&k={K}")).0
        }
        None => send_batch(addr, writer, arrivals[i].2),
    });
    let (r, w): (Vec<_>, Vec<_>) = out
        .into_iter()
        .zip(&arrivals)
        .partition(|(_, a)| a.1.is_some());
    (
        r.into_iter().map(|p| p.0).collect(),
        w.into_iter().map(|p| p.0).collect(),
    )
}

/// Ack → served latency (ms) of every acknowledged batch, from the
/// cursor timeline.
fn visible_ms(acks: &[(u64, Instant)], timeline: &[(Instant, u64)]) -> Vec<f64> {
    acks.iter()
        .filter_map(|&(pos, ack)| {
            let seen = timeline.iter().find(|&&(_, c)| c >= pos)?.0;
            Some(seen.saturating_duration_since(ack).as_secs_f64() * 1e3)
        })
        .collect()
}

pub fn run(r: &mut Run) {
    let ingest = IngestOptions::default();
    r.param("tick_ms", ingest.tick.as_millis());
    r.param("k", K);
    r.param("read_rate_per_s", READ_RATE);
    r.param("ingest_batches_per_s", INGEST_RATE);
    r.param("ingest_batch", BATCH);
    r.param("artifact_epochs", super::ARTIFACT_EPOCHS);
    r.param("client_threads", client_threads());
    let seed = r.seed;
    let (shard, setup_s) = timed_setup(r.setup_repeats(), || start(seed));
    let addr = shard.server.local_addr();
    let st = &shard.ckpt.state;
    let writer = Mutex::new(Writer::new(&shard.ckpt));
    let mut rng = r.rng(0x1A6E);
    let stop = AtomicBool::new(false);
    let registry_before = Snapshot::take();
    let (timeline, phases) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch(&shard.server, &stop));
        let phases = phases(r, &shard, &writer, &mut rng);
        // Drain: wait until the served cursor covers every accepted
        // interaction.
        let accepted = writer.lock().expect("writer lock poisoned").accepted;
        let slot = shard.server.model_slot();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while slot.load().journal_cursor().unwrap_or(0) < accepted && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        (watcher.join().expect("cursor watcher"), phases)
    });
    let delta = Delta::between(registry_before, Snapshot::take());
    let w = writer.into_inner().expect("writer lock poisoned");
    let served_cursor = shard
        .server
        .model_slot()
        .load()
        .journal_cursor()
        .unwrap_or(0);
    r.check(
        format!(
            "ingest-mixed: served journal cursor {served_cursor} equals {} accepted interactions",
            w.accepted
        ),
        served_cursor == w.accepted && w.accepted > 0,
    );
    let fold_errors = delta.count("serve.ingest.fold_errors");
    r.check(
        format!("ingest-mixed: {fold_errors} fold errors"),
        fold_errors == 0.0,
    );
    // After the drain, served answers equal those of an engine built
    // independently: the accepted batches replayed in journal order onto
    // a copy of the base artifact, which folding guarantees is
    // bit-identical to the server's tick-by-tick folds. Checked for
    // every user an accepted batch wrote to (never-seen ones included),
    // so a swap one batch behind shows, and for 64 seeded base users.
    let journal: Vec<_> = w
        .bodies
        .iter()
        .flat_map(|b| parse_ingest_body(b).expect("accepted body parses"))
        .collect();
    let reference = replay(&shard.ckpt, &journal);
    let mut users: BTreeSet<u32> = journal.iter().map(|i| i.user).collect();
    let mut check_rng = r.rng(0xC4EC);
    users.extend((0..64).map(|_| check_rng.below(st.n_users()) as u32));
    let mut bad = 0;
    for &user in &users {
        let (status, body) = crate::http::get(addr, &format!("/recommend?user={user}&k={K}"));
        let expected = reference.recommend(user, K).expect("replayed answer");
        if status != 200 || body != recommend_body(user, K, &expected) {
            bad += 1;
        }
    }
    r.check(
        format!(
            "ingest-mixed: {bad} of {} post-drain bodies differ from a replay of the {} accepted \
             batches",
            users.len(),
            w.bodies.len()
        ),
        bad == 0 && !w.bodies.is_empty(),
    );

    let visible = visible_ms(&w.acks[phases.base_acks.clone()], &timeline);
    let ack: Vec<f64> = phases.base_writes.iter().map(Outcome::latency_ms).collect();
    let read = load::summarize(&phases.base_reads);
    eprintln!(
        "perfbench: ingest-mixed {} batches, visible p50 {:.2} ms p99 {:.2} ms, ack p50 {:.3} ms, \
         read p50 {:.3} ms, {} ticks, {} swaps, {} rebuilds",
        visible.len(),
        median(&visible),
        quantile(&visible, 0.99),
        median(&ack),
        read.p50_ms,
        delta.hist_count("serve.ingest.tick.ms"),
        delta.count("serve.ingest.swaps"),
        delta.count("serve.ingest.rebuilds"),
    );
    if r.trace {
        return traced(r, &shard, &phases, &visible, &ack, &delta);
    }
    r.e2e.set("setup_s", setup_s, "s");
    r.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.e2e.set("p50_ms", median(&visible), "ms");
    r.e2e.set("throughput_per_s", phases.throughput, "1/s");
}

/// A fresh engine over `base` with the accepted `journal` folded in one
/// call, as a restart replaying the journal would.
fn replay(base: &Checkpoint, journal: &[IngestInteraction]) -> ServingModel {
    let mut ckpt = base.clone();
    let mut drift = 0;
    fold_batch(&mut ckpt, journal, &IngestOptions::default(), &mut drift).expect("replay folds");
    ServingModel::new(ckpt).expect("replayed artifact loads")
}

/// What the measured phases produced.
struct Phases {
    base_reads: Vec<Outcome>,
    base_writes: Vec<Outcome>,
    /// The acks that belong to the kept base-phase attempt.
    base_acks: std::ops::Range<usize>,
    /// Closed-loop read throughput (untraced run).
    throughput: f64,
    /// Ladder read capacity (traced run).
    capacity: f64,
    /// Reads of the traced repeat of the base phase (traced run).
    traced_reads: Vec<Outcome>,
}

fn phases(r: &mut Run, shard: &Shard, writer: &Mutex<Writer>, rng: &mut Rng) -> Phases {
    let addr = shard.server.local_addr();
    let base = Duration::from_secs_f64(r.seconds * 0.5);
    let seed = r.seed;
    let acks = || writer.lock().expect("writer lock poisoned").acks.len();
    let (base_reads, base_writes, base_acks) =
        quiet_phase(r, "ingest-mixed base phase", |r, attempt| {
            let first = acks();
            let mut rng = Rng::new(seed, 0xBA5E + attempt);
            let (reads, writes) = mixed(addr, writer, &mut rng, READ_RATE, base);
            tally(r, &reads);
            tally(r, &writes);
            (reads, writes, first..acks())
        });
    let mut p = Phases {
        base_reads,
        base_writes,
        base_acks,
        throughput: 0.0,
        capacity: 0.0,
        traced_reads: Vec::new(),
    };
    if r.trace {
        spans::enable(true);
        let (reads, writes) = mixed(addr, writer, rng, READ_RATE, base);
        tally(r, &reads);
        tally(r, &writes);
        p.traced_reads = reads;
        // Read capacity while ingestion continues at its base rate.
        p.capacity = read_capacity(r, &LADDER, |rate, step| {
            mixed(addr, writer, rng, rate, step)
        });
        return p;
    }
    // Closed-loop reads while ingestion continues at its base rate.
    let n_users = writer.lock().expect("writer lock poisoned").n_users as usize;
    let span = Duration::from_secs_f64(r.seconds * THROUGHPUT_SHARE);
    p.throughput = quiet_phase(r, "closed loop", |r, attempt| {
        let mut rng = Rng::new(seed, 0xC105 + attempt);
        let keys: Vec<_> = (0..THROUGHPUT_KEYS)
            .map(|_| (rng.below(n_users) as u32, K))
            .collect();
        let batches = load::poisson_schedule(&mut rng, INGEST_RATE, span);
        let seeds: Vec<u64> = batches.iter().map(|_| rng.next_u64()).collect();
        let (throughput, writes) = read_throughput(r, addr, &keys, span, &batches, &|i| {
            send_batch(addr, writer, seeds[i])
        });
        eprintln!(
            "perfbench: {} ingest batches during the closed loop",
            writes.len()
        );
        throughput
    });
    p
}

fn traced(
    r: &mut Run,
    shard: &Shard,
    phases: &Phases,
    visible: &[f64],
    ack: &[f64],
    delta: &Delta,
) {
    let untraced = load::summarize(&phases.base_reads);
    let s = load::summarize(&phases.traced_reads);
    let l = &mut r.layer;
    l.set(
        "trace.overhead_frac",
        s.p50_ms / untraced.p50_ms - 1.0,
        "ratio",
    );
    l.set("read.p50_ms", untraced.p50_ms, "ms");
    let all = phases.base_reads.len() + phases.base_writes.len();
    let failed = phases
        .base_reads
        .iter()
        .chain(&phases.base_writes)
        .filter(|o| !o.ok())
        .count();
    l.set("fail_frac", ratio(failed as f64, all as f64), "ratio");
    l.set("ingest.ack_p50_ms", median(ack), "ms");
    l.set("ingest.visible_p99_ms", quantile(visible, 0.99), "ms");
    record_loadgen(l, &s);
    serve_registry(l, delta);
    let ticks = delta.hist_count("serve.ingest.tick.ms");
    let swaps = delta.count("serve.ingest.swaps");
    l.set("serve.ingest.ticks", ticks, "count");
    l.set(
        "serve.ingest.tick_ms",
        delta.hist_mean("serve.ingest.tick.ms"),
        "ms",
    );
    l.set("serve.ingest.swaps", swaps, "count");
    l.set("serve.ingest.swaps_per_tick", ratio(swaps, ticks), "ratio");
    l.set(
        "serve.ingest.attached",
        delta.count("serve.ingest.attached"),
        "count",
    );
    l.set(
        "serve.ingest.rebuilds",
        delta.count("serve.ingest.rebuilds"),
        "count",
    );
    l.set("read.capacity_per_s", phases.capacity, "1/s");

    // One batch body parsed, and one tick's worth of interactions folded
    // into a copy of the base artifact.
    let mut w = Writer::new(&shard.ckpt);
    let mut rng = Rng::new(r.seed, 0xF01D);
    let opts = IngestOptions::default();
    let per_tick = (INGEST_RATE * opts.tick.as_secs_f64()).round() as usize;
    let bodies: Vec<String> = (0..per_tick).map(|_| w.body(&mut rng)).collect();
    let parse = probe_us("serve.online.parse_ingest_body", bodies.len(), |i| {
        std::hint::black_box(parse_ingest_body(&bodies[i]).expect("body parses"));
    });
    l.set("serve.online.parse_us", parse, "us");
    let tick: Vec<_> = bodies
        .iter()
        .flat_map(|b| parse_ingest_body(b).expect("body parses"))
        .collect();
    let mut fold = Vec::new();
    for _ in 0..3 {
        let mut copy = shard.ckpt.clone();
        let mut drift = 0;
        let _g = spans::span("serve.online.fold_batch");
        let t0 = Instant::now();
        fold_batch(&mut copy, &tick, &opts, &mut drift).expect("tick folds");
        fold.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    l.set("serve.online.fold_ms", median(&fold), "ms");

    model_probes(l, &shard.ckpt, RetrievalMode::Exact, r.seed, K);
    let addr = shard.server.local_addr();
    let path = format!("/recommend?user=0&k={K}");
    let direct = spans::traced("probe.direct", || round_trip_us(addr, &path, 100));
    let hit_us = l.get("serve.model.hit_us").expect("hit probe ran");
    l.set("serve.http.overhead_us", direct - hit_us, "us");
    checkpoint_probes(l, &shard.ckpt);
    finish_spans(r, "ingest-mixed");
}
