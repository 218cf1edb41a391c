//! `beam-100k`: one shard serving a 100k-item planted catalogue in beam
//! mode, read by uniform users so the response cache stays cold.

use std::sync::Arc;
use std::time::Duration;

use taxorec_autodiff::Matrix;
use taxorec_core::{ModelState, TaxoRecConfig};
use taxorec_data::{generate_embeddings, EmbedConfig};
use taxorec_serve::{
    serve_with, Checkpoint, IndexConfig, RetrievalMode, ServeOptions, ServerHandle, ServingModel,
};
use taxorec_taxonomy::Taxonomy;

use super::{
    body_items, checkpoint_probes, compare_bodies, finish_spans, measured_setups, model_probes,
    overlap_recall, peak_rss_mb, probe_us, quiet_phase, quiet_throughput, read_capacity, read_step,
    record_loadgen, round_trip_us, sampled, serve_registry, tally, Ladder, Reads, Run, BIND_ADDR,
    THROUGHPUT_SHARE,
};
use crate::load::{self, Rng};
use crate::reg::{Delta, Snapshot};
use crate::spans;
use crate::stats::{mean, median, ratio};

const ITEMS: usize = 100_000;
/// Query users: five times the response cache, so uniform reads miss.
const USERS: usize = 20_000;
const K: usize = 10;
/// Median `read.capacity_per_s` of three traced runs (seeds 31-33) on a
/// 2-core host. The base open-loop read rate is a quarter of it: far
/// below the knee, so the median read is service time, not queueing.
const MEASURED_CAPACITY: f64 = 589.0;
const BASE_RATE: f64 = MEASURED_CAPACITY / 4.0;
/// Served top-10 must agree with the exhaustive ranking at least this
/// well.
const RECALL_FLOOR: f64 = 0.9;
const LADDER: Ladder = Ladder {
    start: 150.0,
    factor: 1.2,
    rungs: 14,
    step: Duration::from_millis(500),
    p99_limit_ms: 20.0,
};

struct Shard {
    server: ServerHandle,
    ckpt: Checkpoint,
}

/// The planted catalogue as a checkpoint with a retrieval index.
fn catalogue(seed: u64) -> Checkpoint {
    let emb = generate_embeddings(&EmbedConfig {
        n_users: USERS,
        seed: seed.wrapping_mul(0x2545_F491).wrapping_add(42),
        ..EmbedConfig::retrieval_bench(ITEMS)
    });
    let config = TaxoRecConfig::default();
    assert_eq!(
        (emb.ambient_ir, emb.ambient_tg),
        (config.dim_ir + 1, config.dim_tag + 1),
        "catalogue dimensions match the default model"
    );
    let n_tags = emb.tag_tree.n_tags();
    let state = ModelState {
        name: "planted-catalogue".to_string(),
        config: config.clone(),
        tags_active: true,
        u_ir: Matrix::from_vec(USERS, emb.ambient_ir, emb.u_ir),
        v_ir: Matrix::from_vec(ITEMS, emb.ambient_ir, emb.v_ir),
        u_tg: Matrix::from_vec(USERS, emb.ambient_tg, emb.u_tg),
        v_tg: Matrix::from_vec(ITEMS, emb.ambient_tg, emb.v_tg),
        t_p: Matrix::zeros(n_tags, config.dim_tag),
        alphas: emb.alphas,
        taxonomy: Some(Taxonomy::from_tag_tree(&emb.tag_tree)),
    };
    Checkpoint {
        state,
        tag_names: Vec::new(),
        item_tags: emb.item_tags,
        seen_items: Vec::new(),
        index: None,
        artifact: None,
        journal_cursor: None,
    }
    .with_retrieval_index(&IndexConfig::default())
    .expect("retrieval index builds")
}

fn start(seed: u64) -> Shard {
    let bytes = catalogue(seed).to_bytes();
    let ckpt = Checkpoint::from_bytes(&bytes).expect("artifact decodes");
    let model = ServingModel::new(ckpt.clone())
        .and_then(|m| m.with_retrieval(RetrievalMode::Beam(0)))
        .expect("artifact loads in beam mode");
    let server =
        serve_with(Arc::new(model), BIND_ADDR, ServeOptions::default()).expect("shard starts");
    Shard { server, ckpt }
}

pub fn run(r: &mut Run) {
    r.param("items", ITEMS);
    r.param("users", USERS);
    r.param("retrieval", "beam:default");
    r.param("k", K);
    r.param("base_rate_per_s", BASE_RATE);
    r.param("client_threads", super::client_threads());
    let seed = r.seed;
    // Every build runs its share of the measured phases.
    let builds = r.setup_repeats();
    let base = Duration::from_secs_f64(r.seconds * 0.4 / builds as f64);
    let closed = Duration::from_secs_f64(r.seconds * THROUGHPUT_SHARE / builds as f64);
    // Peak memory of the first build and its phases: later builds
    // reuse a heap fragmented by the ones before them.
    let mut rss = None;
    let (shard, setup_s, measured) = measured_setups(
        builds,
        || start(seed),
        |shard| {
            let m = measure(r, shard, base, closed);
            rss.get_or_insert_with(peak_rss_mb);
            m
        },
    );
    let recall: Vec<f64> = measured.iter().map(|m| m.2).collect();
    r.layer.set("quality.recall10", mean(&recall), "ratio");
    let p50: Vec<f64> = measured.iter().map(|m| m.0).collect();
    if r.trace {
        return traced(r, &shard, p50[0]);
    }
    let throughput: Vec<f64> = measured.iter().map(|m| m.1).collect();
    r.e2e.set("setup_s", setup_s, "s");
    r.e2e.set("peak_rss_mb", rss.expect("one build"), "MB");
    r.e2e.set("p50_ms", median(&p50), "ms");
    r.e2e.set("throughput_per_s", median(&throughput), "1/s");
}

/// A uniform query user.
fn draw(rng: &mut Rng) -> (u32, usize) {
    (rng.below(USERS) as u32, K)
}

/// One build's phases: the open-loop base phase with its checks, then
/// (untraced) the closed loop. Returns the base phase's p50, the
/// closed-loop throughput, and the served top-10's recall against the
/// exhaustive ranking.
fn measure(r: &mut Run, shard: &Shard, base: Duration, closed: Duration) -> (f64, f64, f64) {
    let addr = shard.server.local_addr();
    let seed = r.seed;
    let keep = sampled(seed, 8);
    let (keys, bodies, summary) = quiet_phase(r, "beam-100k base phase", |r, attempt| {
        let mut rng = Rng::new(seed, 0xBEA3 + attempt);
        let schedule = load::poisson_schedule(&mut rng, BASE_RATE, base);
        let keys: Vec<_> = schedule.iter().map(|_| draw(&mut rng)).collect();
        let (out, bodies) = Reads {
            addr,
            keys: &keys,
            schedule: &schedule,
        }
        .run(&keep);
        (keys, bodies, tally(r, &out))
    });
    eprintln!(
        "perfbench: beam-100k base phase {} reads, p50 {:.4} ms, p99 {:.3} ms, late p99 {:.3} ms",
        summary.attempted, summary.p50_ms, summary.p99_ms, summary.late_p99_ms
    );

    // Served bodies equal the in-process beam answers, and the beam's
    // top-10 is scored against the exhaustive ranking.
    let beam_ref = ServingModel::new(shard.ckpt.clone())
        .and_then(|m| m.with_retrieval(RetrievalMode::Beam(0)))
        .expect("reference beam engine");
    let (checked, bad) = compare_bodies(&beam_ref, &keys, &bodies);
    r.check(
        format!("beam-100k: {bad} of {checked} sampled bodies differ from in-process answers"),
        bad == 0 && checked > 0,
    );
    drop(beam_ref);
    let exact = ServingModel::new(shard.ckpt.clone()).expect("exhaustive engine");
    let recall = mean(
        &bodies
            .iter()
            .map(|(i, body)| {
                let (user, k) = keys[*i];
                let top: Vec<u32> = exact
                    .recommend(user, k)
                    .expect("exact")
                    .iter()
                    .map(|p| p.0)
                    .collect();
                overlap_recall(&body_items(body), &top)
            })
            .collect::<Vec<_>>(),
    );
    drop(exact);
    eprintln!(
        "perfbench: beam-100k beam_recall10 {recall:.4} over {} users",
        bodies.len()
    );
    r.check(
        format!("beam-100k: beam_recall10 {recall:.4} >= {RECALL_FLOOR}"),
        recall >= RECALL_FLOOR,
    );
    let throughput = if r.trace {
        0.0
    } else {
        quiet_throughput(r, addr, closed, &mut draw)
    };
    (summary.p50_ms, throughput, recall)
}

fn traced(r: &mut Run, shard: &Shard, untraced_p50: f64) {
    let addr = shard.server.local_addr();
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

    // Beam against exhaustive search on the same users, straight
    // through the retrieval index.
    let engine = ServingModel::new(shard.ckpt.clone()).expect("probe engine");
    let index = engine.retrieval_index().expect("artifact carries an index");
    let st = &shard.ckpt.state;
    let users: Vec<usize> = (0..32).map(|_| rng.below(USERS)).collect();
    let anchor = |u: usize| {
        let alpha = st.config.tag_channel_gain * st.alphas[u];
        (st.u_ir.row(u), Some((st.u_tg.row(u), alpha)))
    };
    let beam = index.default_beam();
    let mut candidates = 0usize;
    let beam_us = probe_us("retrieval.search", users.len(), |i| {
        let (a, tag) = anchor(users[i]);
        let (top, stats) = index.search(a, tag, beam, K, &|_| false);
        candidates += stats.candidates;
        std::hint::black_box(top);
    });
    let exact_us = probe_us("retrieval.search_exact", users.len(), |i| {
        let (a, tag) = anchor(users[i]);
        std::hint::black_box(index.search_exact(a, tag, K, &|_| false));
    });
    l.set("retrieval.beam_us", beam_us, "us");
    l.set("retrieval.exact_us", exact_us, "us");
    l.set(
        "retrieval.probe_candidates_mean",
        candidates as f64 / users.len() as f64,
        "count",
    );
    drop(engine);

    model_probes(l, &shard.ckpt, RetrievalMode::Beam(0), r.seed, K);
    let path = format!("/recommend?user={}&k={K}", keys[0].0);
    let direct = spans::traced("probe.direct", || round_trip_us(addr, &path, 200));
    let hit_us = l.get("serve.model.hit_us").expect("hit probe ran");
    l.set("serve.http.overhead_us", direct - hit_us, "us");
    checkpoint_probes(l, &shard.ckpt);
    let capacity = read_capacity(r, &LADDER, |rate, step| {
        read_step(addr, &mut rng, &mut draw, rate, step)
    });
    r.layer.set("read.capacity_per_s", capacity, "1/s");
    finish_spans(r, "beam-100k");
}
