//! `perfbench` — the repository's one-command benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-yelp|fleet-zipf|beam-100k|ingest-mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for about
//! `--seconds`, checks the program's outputs, and prints as the last
//! line of standard output one JSON object: `correct`, `attempted`,
//! `failed`, and the metrics — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. A failed correctness check
//! exits with code 1; a usage or environment error with code 2 and no
//! result line. See `README.md` beside this file.

mod http;
mod load;
mod reg;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use stats::Metrics;
use workloads::Run;

const WORKLOADS: [&str; 4] = ["train-yelp", "fleet-zipf", "beam-100k", "ingest-mixed"];

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.epoch.agg_s", "s"),
    ("core.epoch.score_s", "s"),
    ("core.epoch.update_s", "s"),
    ("core.epoch.other_s", "s"),
    ("core.fit.tail_s", "s"),
    ("train.fit_s", "s"),
    ("core.aggregation_ms", "ms"),
    ("autodiff.spmm_ms", "ms"),
    ("autodiff.backward_ms", "ms"),
    ("core.rsgd_ms", "ms"),
    ("taxonomy.rebuild_s", "s"),
    ("taxonomy.construct_ms", "ms"),
    ("parallel.jobs", "count"),
    ("parallel.jobs_per_epoch", "count"),
    ("parallel.job_p50_us", "us"),
    ("parallel.pool.utilization", "ratio"),
    ("eval.valid_users_per_s", "1/s"),
    ("serve.model.miss_us", "us"),
    ("serve.model.hit_us", "us"),
    ("serve.model.batch32_us", "us"),
    ("serve.cache.hit_frac", "ratio"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.batch.wait_ms", "ms"),
    ("serve.batch.size_mean", "count"),
    ("serve.batch.batches", "count"),
    ("serve.batch.requests", "count"),
    ("serve.http.overhead_us", "us"),
    ("serve.http.shed", "count"),
    ("serve.batch.shed", "count"),
    ("serve.router.hop_us", "us"),
    ("serve.router.hedge_frac", "ratio"),
    ("serve.router.hedges", "count"),
    ("serve.router.requests", "count"),
    ("serve.router.failover", "count"),
    ("retrieval.beam_us", "us"),
    ("retrieval.exact_us", "us"),
    ("retrieval.probe_candidates_mean", "count"),
    ("retrieval.candidates_mean", "count"),
    ("retrieval.queries", "count"),
    ("serve.checkpoint.encode_ms", "ms"),
    ("serve.checkpoint.decode_ms", "ms"),
    ("serve.online.parse_us", "us"),
    ("serve.online.fold_ms", "ms"),
    ("serve.ingest.tick_ms", "ms"),
    ("serve.ingest.ticks", "count"),
    ("serve.ingest.swaps", "count"),
    ("serve.ingest.swaps_per_tick", "ratio"),
    ("serve.ingest.attached", "count"),
    ("serve.ingest.rebuilds", "count"),
    ("ingest.ack_p50_ms", "ms"),
    ("ingest.visible_p99_ms", "ms"),
    ("read.p50_ms", "ms"),
    ("read.capacity_per_s", "1/s"),
    ("quality.recall10", "ratio"),
    ("fail_frac", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.read_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("host.steal_max_frac", "ratio"),
    ("host.attempts", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value:?} is not valid");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(args: &Args, run: &Run) -> String {
    let params: Vec<String> = run
        .params
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"nproc\": {}, \"pool_width\": {}, \"params\": {{{}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        workloads::client_threads(),
        taxorec_parallel::thread_count(),
        params.join(", ")
    )
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args) -> ExitCode {
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        e2e: Metrics::default(),
        layer: Metrics::default(),
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        params: Vec::new(),
        steal: Vec::new(),
    };
    match args.workload.as_str() {
        "train-yelp" => workloads::train::run(&mut run),
        "fleet-zipf" => workloads::fleet::run(&mut run),
        "beam-100k" => workloads::beam::run(&mut run),
        "ingest-mixed" => workloads::ingest::run(&mut run),
        other => unreachable!("workload {other} passed validation"),
    }
    let steal_max = run.steal.iter().copied().fold(0.0, f64::max);
    run.layer.set("host.steal_max_frac", steal_max, "ratio");
    run.layer
        .set("host.attempts", run.steal.len() as f64, "count");
    let mut metrics = Metrics::default();
    if args.trace {
        for &(name, unit) in PER_LAYER {
            metrics.set(name, run.layer.get(name).unwrap_or(0.0), unit);
        }
        if let Some((name, _, _)) = run
            .layer
            .entries()
            .iter()
            .find(|(n, _, _)| PER_LAYER.iter().all(|(p, _)| p != n))
        {
            panic!("per-layer metric {name} is missing from PER_LAYER");
        }
    } else {
        for &(name, unit) in &END_TO_END {
            let value = run
                .e2e
                .get(name)
                .unwrap_or_else(|| panic!("{} did not measure {name}", args.workload));
            metrics.set(name, value, unit);
        }
    }
    let correct = run.checks.iter().all(|(_, ok)| *ok);
    for (what, ok) in &run.checks {
        println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    for (name, value, unit) in metrics.entries() {
        println!("metric {name} = {value} {unit}");
    }
    println!("{}", header(args, &run));
    println!(
        "{}",
        stats::result_line(correct, run.attempted, run.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--workload all`: each workload in its own child process (so peak
/// memory and the telemetry registry stay per workload), then one
/// combined result line with every metric keyed `<workload>.<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut combined = Metrics::default();
    let mut all_ok = true;
    let mut failed = 0u64;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: running {w} failed: {e}");
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("[{w}] {line}");
        }
        let ok = out.status.success();
        all_ok &= ok;
        failed += u64::from(!ok);
        // `metric <name> = <value> <unit>` lines of a known metric.
        for line in &lines {
            let mut parts = line.split_whitespace();
            if let (Some("metric"), Some(name), Some("="), Some(value)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            {
                let known = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
                if let (Some(&(_, unit)), Ok(v)) = (known, value.parse()) {
                    combined.set(&format!("{w}.{name}"), v, unit);
                }
            }
        }
    }
    println!(
        "{}",
        stats::result_line(all_ok, WORKLOADS.len() as u64, failed, &combined)
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program must run at its shipped defaults: any TAXOREC_*
    // setting would change what is measured.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("TAXOREC_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset every TAXOREC_* variable",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
