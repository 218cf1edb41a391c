//! `train-yelp`: `TaxoRec::fit_controlled` at the paper-tuned defaults
//! on full-scale synthetic Yelp, for a fixed epoch budget.

use std::time::Instant;

use taxorec_autodiff::{Matrix, Tape};
use taxorec_core::aggregation::{global_aggregation, local_tag_aggregation};
use taxorec_core::{optim, FitControl, GraphMatrices, TaxoRec, TaxoRecConfig, TrainState};
use taxorec_data::{Dataset, Split};
use taxorec_serve::Checkpoint;
use taxorec_taxonomy::{construct_taxonomy, ConstructConfig};
use taxorec_telemetry::EpochRecord;

use super::{
    checkpoint_probes, finish_spans, peak_rss_mb, probe_us, quiet_phase, timed_setup, yelp, Run,
};
use crate::reg::{Delta, Snapshot};
use crate::spans;
use crate::stats::{mean, median, ratio};

/// Epoch budget: with the default 50% warm-up, epochs 0–1 warm up,
/// epoch 2 rebuilds the taxonomy in-loop, and the fit ends with the
/// final rebuild.
pub const EPOCHS: usize = 4;

/// Wall time of one fit on a 2-core host, for sizing a run's fit count.
const FIT_ESTIMATE_S: f64 = 5.0;

/// The stage breakdown must cover the epoch wall seen from outside to
/// within this share.
const STAGE_SUM_TOLERANCE: f64 = 0.05;

fn config() -> TaxoRecConfig {
    TaxoRecConfig {
        epochs: EPOCHS,
        ..TaxoRecConfig::default()
    }
}

/// One `fit_controlled` call, observed from outside.
struct Fit {
    wall_s: f64,
    /// Wall time between successive `on_epoch` callbacks (epochs 1..).
    epoch_walls: Vec<f64>,
    records: Vec<EpochRecord>,
    diverged: bool,
    artifact: Vec<u8>,
    model: TaxoRec,
    /// Raw parameters after the last epoch (captured on request).
    state: Option<TrainState>,
}

fn fit(dataset: &Dataset, split: &Split, capture: bool) -> Fit {
    let mut model = TaxoRec::new(config());
    let mut marks: Vec<Instant> = Vec::with_capacity(EPOCHS);
    let mut records: Vec<EpochRecord> = Vec::with_capacity(EPOCHS);
    let mut state: Option<TrainState> = None;
    let t0 = Instant::now();
    let report = {
        let _g = spans::span("core.fit_controlled");
        let ctl = FitControl {
            on_epoch: Some(Box::new(|rec: &EpochRecord| {
                marks.push(Instant::now());
                records.push(rec.clone());
            })),
            checkpoint_every: if capture { EPOCHS } else { 0 },
            checkpoint_sink: capture.then(|| {
                Box::new(|s: &TrainState| {
                    state = Some(s.clone());
                    Ok(())
                }) as Box<dyn FnMut(&TrainState) -> Result<(), String>>
            }),
            ..FitControl::default()
        };
        model.fit_controlled(dataset, split, ctl)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let epoch_walls = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    let artifact = spans::traced("serve.checkpoint.to_bytes", || {
        Checkpoint::from_model(&model)
            .with_dataset(dataset)
            .with_seen_items(&split.train)
            .to_bytes()
    });
    Fit {
        wall_s,
        epoch_walls,
        records,
        diverged: report.gave_up || report.rollbacks > 0,
        artifact,
        model,
        state,
    }
}

pub fn run(r: &mut Run) {
    let cfg = config();
    r.param("dataset", "Yelp-synth Scale::Full");
    r.param("epochs", EPOCHS);
    r.param("dim_ir", cfg.dim_ir);
    r.param("dim_tag", cfg.dim_tag);
    r.param("gcn_layers", cfg.gcn_layers);
    r.param("batch_size", cfg.batch_size);
    let seed = r.seed;
    let ((dataset, split), setup_s) = timed_setup(r.setup_repeats(), || yelp(seed));
    r.param("users", dataset.n_users);
    r.param("items", dataset.n_items);
    r.param("tags", dataset.n_tags);
    r.param("train_interactions", split.n_train());

    if r.trace {
        return traced(r, &dataset, &split);
    }
    // As many fits as `--seconds` covers, at least two: the repeats must
    // produce the same artifact bytes. The count depends on `--seconds`
    // only, so every run mixes cold and warm fits alike.
    let n_fits = ((r.seconds / FIT_ESTIMATE_S).round() as usize).max(2);
    r.param("fits", n_fits);
    let fits: Vec<Fit> = (0..n_fits)
        .map(|i| {
            quiet_phase(r, &format!("train-yelp fit {i}"), |r, _| {
                let f = fit(&dataset, &split, false);
                r.attempted += 1;
                r.failed += u64::from(f.diverged);
                f
            })
        })
        .collect();
    for (i, f) in fits.iter().enumerate().skip(1) {
        r.check(
            format!("train-yelp: fit {i} artifact bytes equal fit 0"),
            f.artifact == fits[0].artifact,
        );
    }
    let recall = recall10(&fits[0].model, &split);
    let walls: Vec<f64> = fits.iter().flat_map(|f| f.epoch_walls.clone()).collect();
    let fit_s = median(&fits.iter().map(|f| f.wall_s).collect::<Vec<_>>());
    let examples = (split.n_train() * EPOCHS) as f64;
    eprintln!(
        "perfbench: train-yelp {} fits, train_epoch_s {:.4}, train_fit_s {fit_s:.4}, \
         train_recall10 {recall:.6}",
        fits.len(),
        median(&walls)
    );
    r.e2e.set("setup_s", setup_s, "s");
    r.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.e2e.set("p50_ms", median(&walls) * 1e3, "ms");
    r.e2e.set("throughput_per_s", examples / fit_s, "1/s");
}

fn recall10(model: &TaxoRec, split: &Split) -> f64 {
    taxorec_eval::evaluate_valid(model, split, &[10]).mean_recall(0)
}

/// The traced run: two untraced fits, one traced fit with its registry
/// delta and captured parameters, a one-thread fit that must produce
/// the same bytes, then probes of each layer on the trained state.
fn traced(r: &mut Run, dataset: &Dataset, split: &Split) {
    let plain = fit(dataset, split, false);
    // The first fit in a process runs cold (pool start, heap growth):
    // the overhead baseline is a second, warm untraced fit.
    let warm = fit(dataset, split, false);
    spans::enable(true);
    let before = Snapshot::take();
    let traced_fit = fit(dataset, split, true);
    let delta = Delta::between(before, Snapshot::take());
    let utilization = taxorec_telemetry::gauge("parallel.pool.utilization").get();
    r.check(
        "train-yelp: traced fit artifact bytes equal the untraced fit",
        traced_fit.artifact == plain.artifact,
    );
    // The same fit on a one-thread pool must be bit-identical.
    std::env::set_var("TAXOREC_THREADS", "1");
    let single = fit(dataset, split, false);
    std::env::remove_var("TAXOREC_THREADS");
    r.check(
        format!(
            "train-yelp: artifact bytes equal at 1 and {} threads",
            taxorec_parallel::thread_count()
        ),
        single.artifact == plain.artifact,
    );
    r.attempted += 4;
    r.failed += [&plain, &warm, &traced_fit, &single]
        .iter()
        .filter(|f| f.diverged)
        .count() as u64;

    let l = &mut r.layer;
    let recs = &traced_fit.records;
    let stage = |f: fn(&EpochRecord) -> f64| mean(&recs.iter().skip(1).map(f).collect::<Vec<_>>());
    let agg = stage(|e| e.aggregation_secs);
    let score = stage(|e| e.scoring_secs);
    let update = stage(|e| e.update_secs);
    let other = stage(|e| e.duration_secs - e.aggregation_secs - e.scoring_secs - e.update_secs);
    let wall = mean(&traced_fit.epoch_walls);
    let sum = agg + score + update + other;
    let stage_gap = (sum - wall).abs() / wall;
    eprintln!(
        "perfbench: epoch wall {wall:.4}s = agg {agg:.4} + score {score:.4} + update {update:.4} \
         + other {other:.4} (sum {sum:.4}, gap {:.2}%)",
        stage_gap * 100.0
    );
    r.checks.push((
        format!("train-yelp: epoch stages sum to the epoch wall within 5% (gap {stage_gap:.4})"),
        stage_gap <= STAGE_SUM_TOLERANCE && other >= 0.0,
    ));
    l.set("core.epoch.agg_s", agg, "s");
    l.set("core.epoch.score_s", score, "s");
    l.set("core.epoch.update_s", update, "s");
    l.set("core.epoch.other_s", other, "s");
    let epochs_s: f64 = recs.iter().map(|e| e.duration_secs).sum();
    l.set("core.fit.tail_s", traced_fit.wall_s - epochs_s, "s");
    l.set("train.fit_s", plain.wall_s, "s");
    l.set("quality.recall10", recall10(&plain.model, split), "ratio");
    let rebuilds: Vec<f64> = recs
        .iter()
        .filter_map(|e| e.rebuild.as_ref().map(|b| b.duration_secs))
        .collect();
    l.set("taxonomy.rebuild_s", mean(&rebuilds), "s");
    let jobs = delta.count("parallel.jobs");
    l.set("parallel.jobs", jobs, "count");
    l.set(
        "parallel.jobs_per_epoch",
        ratio(jobs, recs.len() as f64),
        "count",
    );
    l.set(
        "parallel.job_p50_us",
        delta.hist_quantile("parallel.job.duration", 0.5) * 1e6,
        "us",
    );
    l.set("parallel.pool.utilization", utilization, "ratio");
    let overhead = median(&traced_fit.epoch_walls) / median(&warm.epoch_walls) - 1.0;
    l.set("trace.overhead_frac", overhead, "ratio");

    let t0 = Instant::now();
    let eval = spans::traced("eval.evaluate_valid", || {
        taxorec_eval::evaluate_valid(&traced_fit.model, split, &[10])
    });
    l.set(
        "eval.valid_users_per_s",
        eval.users.len() as f64 / t0.elapsed().as_secs_f64(),
        "1/s",
    );
    let state = traced_fit
        .state
        .as_ref()
        .expect("final training state captured");
    layer_probes(l, dataset, split, state);
    let ckpt = Checkpoint::from_bytes(&plain.artifact).expect("trained artifact decodes");
    checkpoint_probes(l, &ckpt);
    finish_spans(r, "train-yelp");
}

/// Probes of `core::aggregation`, `autodiff`, `core::optim` and
/// `taxonomy` on the trained raw parameters.
fn layer_probes(l: &mut crate::stats::Metrics, dataset: &Dataset, split: &Split, s: &TrainState) {
    let cfg = &s.config;
    let graph = GraphMatrices::build(dataset, split);
    let forward = |tape: &mut Tape| {
        let u_ir = tape.leaf(s.u_ir.clone());
        let v_ir = tape.leaf(s.v_ir.clone());
        let u_tg = tape.leaf(s.u_tg.clone());
        let t_p = tape.leaf(s.t_p.clone());
        let (u, v) = global_aggregation(tape, u_ir, v_ir, &graph, cfg.gcn_layers);
        let local = local_tag_aggregation(tape, t_p, &graph, cfg.einstein_local);
        let (ut, vt) = global_aggregation(tape, u_tg, local, &graph, cfg.gcn_layers);
        ([u_ir, v_ir, u_tg, t_p], [u, v, ut, vt])
    };
    let agg = probe_us("core.aggregation", 3, |_| {
        let mut tape = Tape::new();
        std::hint::black_box(forward(&mut tape));
    });
    l.set("core.aggregation_ms", agg / 1e3, "ms");

    let mut z = s.u_ir.data().to_vec();
    z.extend_from_slice(s.v_ir.data());
    let z = Matrix::from_vec(s.u_ir.rows() + s.v_ir.rows(), s.u_ir.cols(), z);
    let spmm = probe_us("autodiff.csr_matmul", 5, |_| {
        std::hint::black_box(graph.propagate.matmul(&z));
    });
    l.set("autodiff.spmm_ms", spmm / 1e3, "ms");

    let mut grads = None;
    let backward = probe_us("autodiff.backward", 3, |_| {
        let mut tape = Tape::new();
        let (leaves, outs) = forward(&mut tape);
        let means = outs.map(|o| tape.mean_all(o));
        let a = tape.add(means[0], means[1]);
        let b = tape.add(means[2], means[3]);
        let loss = tape.add(a, b);
        let mut g = tape.backward(loss);
        grads = Some(leaves.map(|leaf| g.take(leaf).expect("every leaf gets a gradient")));
    });
    l.set("autodiff.backward_ms", backward / 1e3, "ms");

    let [g_u, g_v, g_ut, g_t] = grads.expect("backward ran");
    let mut rsgd = Vec::new();
    for _ in 0..3 {
        let (mut u, mut v, mut ut, mut t) = (
            s.u_ir.clone(),
            s.v_ir.clone(),
            s.u_tg.clone(),
            s.t_p.clone(),
        );
        let _g = spans::span("core.rsgd");
        let t0 = Instant::now();
        optim::rsgd_lorentz(&mut u, &g_u, cfg.lr);
        optim::rsgd_lorentz(&mut v, &g_v, cfg.lr);
        optim::rsgd_lorentz(&mut ut, &g_ut, cfg.lr);
        optim::rsgd_poincare(&mut t, &g_t, cfg.lr * cfg.lr_tag_mult);
        rsgd.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box((u, v, ut, t));
    }
    let rsgd = median(&rsgd);
    l.set("core.rsgd_ms", rsgd / 1e3, "ms");

    let construct = ConstructConfig {
        k: cfg.taxo_k,
        delta: cfg.taxo_delta,
        min_node_size: cfg.taxo_min_node,
        max_depth: cfg.taxo_max_depth,
        seeding: cfg.taxo_seeding,
        seed: cfg.seed ^ 0x7a70,
        ..ConstructConfig::default()
    };
    let taxo = probe_us("taxonomy.construct_taxonomy", 5, |_| {
        std::hint::black_box(construct_taxonomy(
            s.t_p.data(),
            s.t_p.cols(),
            dataset.n_tags,
            &dataset.item_tags,
            &construct,
        ));
    });
    l.set("taxonomy.construct_ms", taxo / 1e3, "ms");
}
