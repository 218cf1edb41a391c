//! `fleet-zipf`: `serve::route_with` in front of two `serve_with`
//! shards serving the same Yelp artifact in exact mode, read with
//! Zipf-skewed users and a fixed `k`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use taxorec_serve::{
    route_with, serve_with, Checkpoint, RetrievalMode, Ring, RouterHandle, RouterOptions,
    ServeOptions, ServerHandle, ServingModel,
};

use super::{
    checkpoint_probes, compare_bodies, finish_spans, measured_setups, model_probes, peak_rss_mb,
    quiet_phase, quiet_throughput, read_capacity, read_step, record_loadgen, round_trip_us,
    sampled, serve_registry, tally, yelp, yelp_artifact, Ladder, Reads, Run, BIND_ADDR,
    THROUGHPUT_SHARE,
};
use crate::load::{self, Rng, Zipf};
use crate::reg::{Delta, Snapshot};
use crate::spans;
use crate::stats::{median, ratio};

const SHARDS: usize = 2;
const K: usize = 10;
/// Skew of the user draw: with the warm-up below, about 90% of timed
/// reads hit the owning shard's cache, so the median is a hit.
const ZIPF_S: f64 = 1.3;
/// Median `read.capacity_per_s` of three traced runs (seeds 31-33) on a
/// 2-core host. The base open-loop read rate is a quarter of it: far
/// below the knee, so the median read is service time, not queueing.
const MEASURED_CAPACITY: f64 = 3899.0;
const BASE_RATE: f64 = MEASURED_CAPACITY / 4.0;
/// Untimed Zipf traffic that fills the shards' caches first.
const WARMUP: Duration = Duration::from_secs(2);
const LADDER: Ladder = Ladder {
    start: 800.0,
    factor: 1.2,
    rungs: 14,
    step: Duration::from_millis(500),
    p99_limit_ms: 20.0,
};

/// Router first: fields drop in order, so the router stops before the
/// shards it routes to.
struct Fleet {
    router: RouterHandle,
    shards: Vec<ServerHandle>,
    ckpt: Checkpoint,
}

fn start(seed: u64) -> Fleet {
    let (dataset, split) = yelp(seed);
    let bytes = yelp_artifact(&dataset, &split).to_bytes();
    let ckpt = Checkpoint::from_bytes(&bytes).expect("artifact decodes");
    let shards: Vec<ServerHandle> = (0..SHARDS)
        .map(|i| {
            let model = ServingModel::new(ckpt.clone()).expect("artifact loads");
            let opts = ServeOptions {
                shard_id: Some(format!("shard-{i}")),
                ..ServeOptions::default()
            };
            serve_with(Arc::new(model), BIND_ADDR, opts).expect("shard starts")
        })
        .collect();
    let addrs = shards.iter().map(ServerHandle::local_addr).collect();
    let router = route_with(addrs, BIND_ADDR, RouterOptions::default()).expect("router starts");
    // Ready once a routed read answers.
    let addr = router.local_addr();
    for _ in 0..500 {
        if crate::http::get(addr, "/recommend?user=0&k=1").0 == 200 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Fleet {
        router,
        shards,
        ckpt,
    }
}

pub fn run(r: &mut Run) {
    r.param("shards", SHARDS);
    r.param("retrieval", "exact");
    r.param("k", K);
    r.param("zipf_s", ZIPF_S);
    r.param("base_rate_per_s", BASE_RATE);
    r.param("artifact_epochs", super::ARTIFACT_EPOCHS);
    r.param("client_threads", super::client_threads());
    let seed = r.seed;
    // Every build runs its share of the measured phases.
    let builds = r.setup_repeats();
    let base = Duration::from_secs_f64(r.seconds * 0.4 / builds as f64);
    let closed = Duration::from_secs_f64(r.seconds * THROUGHPUT_SHARE / builds as f64);
    // Peak memory of the first build and its phases: later builds
    // reuse a heap fragmented by the ones before them.
    let mut rss = None;
    let (fleet, setup_s, measured) = measured_setups(
        builds,
        || start(seed),
        |fleet| {
            let m = measure(r, fleet, base, closed);
            rss.get_or_insert_with(peak_rss_mb);
            m
        },
    );
    r.param("users", fleet.ckpt.state.n_users());
    let p50: Vec<f64> = measured.iter().map(|m| m.0).collect();
    if r.trace {
        return traced(r, &fleet, p50[0]);
    }
    let throughput: Vec<f64> = measured.iter().map(|m| m.1).collect();
    r.e2e.set("setup_s", setup_s, "s");
    r.e2e.set("peak_rss_mb", rss.expect("one build"), "MB");
    r.e2e.set("p50_ms", median(&p50), "ms");
    r.e2e.set("throughput_per_s", median(&throughput), "1/s");
}

/// The seeded Zipf user draw over a fleet's users.
fn zipf(r: &Run, fleet: &Fleet) -> Zipf {
    Zipf::new(fleet.ckpt.state.n_users(), ZIPF_S, &mut r.rng(0x2195))
}

/// One build's phases: an untimed warm-up that fills the owning shards'
/// caches, the open-loop base phase with its checks, and (untraced) the
/// closed loop. Returns the base phase's p50 and the closed-loop
/// throughput.
fn measure(r: &mut Run, fleet: &Fleet, base: Duration, closed: Duration) -> (f64, f64) {
    let addr = fleet.router.local_addr();
    let seed = r.seed;
    let zipf = zipf(r, fleet);
    let mut draw = |rng: &mut Rng| (zipf.sample(rng), K);

    let mut rng = r.rng(0xAA3A);
    let warm = load::poisson_schedule(&mut rng, BASE_RATE, WARMUP);
    let warm_keys: Vec<_> = warm.iter().map(|_| draw(&mut rng)).collect();
    let (out, _) = Reads {
        addr,
        keys: &warm_keys,
        schedule: &warm,
    }
    .run(&|_| false);
    tally(r, &out);

    let keep = sampled(seed, 16);
    let (keys, bodies, summary, delta) = quiet_phase(r, "fleet-zipf base phase", |r, attempt| {
        let mut rng = Rng::new(seed, 0xBA5E + attempt);
        let schedule = load::poisson_schedule(&mut rng, BASE_RATE, base);
        let keys: Vec<_> = schedule.iter().map(|_| draw(&mut rng)).collect();
        let before = Snapshot::take();
        let (out, bodies) = Reads {
            addr,
            keys: &keys,
            schedule: &schedule,
        }
        .run(&keep);
        let delta = Delta::between(before, Snapshot::take());
        (keys, bodies, tally(r, &out), delta)
    });
    let hits = delta.count("serve.cache.hit");
    let hit_frac = ratio(hits, hits + delta.count("serve.cache.miss"));
    eprintln!(
        "perfbench: fleet-zipf base phase {} reads, p50 {:.4} ms, p99 {:.3} ms, late p99 {:.3} ms, \
         cache hit share {hit_frac:.3} of {:.0}",
        summary.attempted,
        summary.p50_ms,
        summary.p99_ms,
        summary.late_p99_ms,
        hits + delta.count("serve.cache.miss")
    );
    r.check(
        format!("fleet-zipf: cache hit share {hit_frac:.3} sits well away from 50%"),
        (hit_frac - 0.5).abs() >= 0.2,
    );

    let reference = ServingModel::new(fleet.ckpt.clone()).expect("reference engine");
    let (checked, bad) = compare_bodies(&reference, &keys, &bodies);
    r.check(
        format!("fleet-zipf: {bad} of {checked} sampled bodies differ from in-process answers"),
        bad == 0 && checked > 0,
    );
    let throughput = if r.trace {
        0.0
    } else {
        quiet_throughput(r, addr, closed, &mut draw)
    };
    (summary.p50_ms, throughput)
}

/// The traced run: the base phase again with spans on, registry deltas
/// over it, then the hop and per-layer probes.
fn traced(r: &mut Run, fleet: &Fleet, untraced_p50: f64) {
    let addr = fleet.router.local_addr();
    let zipf = zipf(r, fleet);
    let draw = &mut |rng: &mut Rng| (zipf.sample(rng), K);
    let mut rng = r.rng(0x7ACE);
    let base = Duration::from_secs_f64(r.seconds * 0.4);
    let schedule = load::poisson_schedule(&mut rng, BASE_RATE, base);
    let keys: Vec<_> = schedule.iter().map(|_| draw(&mut rng)).collect();
    spans::enable(true);
    let before = Snapshot::take();
    let (out, _) = Reads {
        addr,
        keys: &keys,
        schedule: &schedule,
    }
    .run(&|_| false);
    let delta = Delta::between(before, Snapshot::take());
    let s = tally(r, &out);
    let l = &mut r.layer;
    l.set(
        "trace.overhead_frac",
        s.p50_ms / untraced_p50 - 1.0,
        "ratio",
    );
    l.set("read.p50_ms", s.p50_ms, "ms");
    l.set(
        "fail_frac",
        ratio(s.failed as f64, s.attempted as f64),
        "ratio",
    );
    record_loadgen(l, &s);
    serve_registry(l, &delta);
    let routed = delta.count("router.requests");
    l.set("serve.router.requests", routed, "count");
    l.set(
        "serve.router.hedges",
        delta.count("router.hedge.fired"),
        "count",
    );
    l.set(
        "serve.router.hedge_frac",
        ratio(delta.count("router.hedge.fired"), routed),
        "ratio",
    );
    l.set(
        "serve.router.failover",
        delta.count("router.failover"),
        "count",
    );

    model_probes(l, &fleet.ckpt, RetrievalMode::Exact, r.seed, K);
    // The same cached key, direct to its owning shard and through the
    // router: the router hop is the difference.
    let user = keys[0].0;
    let owner: SocketAddr = fleet.shards[Ring::new(SHARDS).owner(user) as usize].local_addr();
    let path = format!("/recommend?user={user}&k={K}");
    let direct = spans::traced("probe.direct", || round_trip_us(owner, &path, 200));
    let routed_us = spans::traced("probe.routed", || round_trip_us(addr, &path, 200));
    let hit_us = l.get("serve.model.hit_us").expect("hit probe ran");
    l.set("serve.http.overhead_us", direct - hit_us, "us");
    l.set("serve.router.hop_us", routed_us - direct, "us");
    checkpoint_probes(l, &fleet.ckpt);
    let capacity = read_capacity(r, &LADDER, |rate, step| {
        read_step(addr, &mut rng, draw, rate, step)
    });
    r.layer.set("read.capacity_per_s", capacity, "1/s");
    finish_spans(r, "fleet-zipf");
}
