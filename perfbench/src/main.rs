//! The repository benchmark: runs one named workload against the
//! workspace crates, checks its outputs and prints every metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `heatmap-lenet5-bim`, `heatmap-alexnet-cr`, `train-ffnn`,
//! `serve-mixed` (see `perfbench/README.md` for why each exists and which
//! layer each is built to show). Every input is generated from `--seed`.
//!
//! Output: a table of every metric with its unit and sample count, then,
//! as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`. A per-run manifest (and, when traced,
//! the span dump) is written under `perfbench/out/`. The exit code is 1
//! when a correctness check fails and 2 on bad arguments.

mod openloop;
mod procstat;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Manifest, Outcome};
use trace::Tracer;
use workloads::{heatmap, serve, train, Ctx};

/// The workload names, in BENCHMARK.json order.
const WORKLOADS: [&str; 4] = [
    "heatmap-lenet5-bim",
    "heatmap-alexnet-cr",
    "train-ffnn",
    "serve-mixed",
];

/// End-to-end metrics and their units, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("latency_ms", "ms"),
];

/// Per-layer metrics and their units, reported with `--trace 1`. A layer
/// a workload does not exercise did no work there and reads 0.
const PER_LAYER: [(&str, &str); 48] = [
    ("axattack.craft_s", "s"),
    ("axattack.crafted", "count"),
    ("axattack.grad_evals", "count"),
    ("axattack.grad_evals_per_s", "1/s"),
    ("axquant.qplan.compile_ms", "ms"),
    ("axquant.qplan.predict_s", "s"),
    ("axquant.qplan.forwards", "count"),
    ("axquant.qplan.macs", "count"),
    ("axquant.qplan.bytes", "B"),
    ("axquant.qplan.gmac_per_s", "GMAC/s"),
    ("axquant.qplan.share", "ratio"),
    ("axrobust.driver_self_s", "s"),
    ("axnn.fit_s", "s"),
    ("axnn.fit_images", "count"),
    ("axnn.fplan.param_grad_batch_ms", "ms"),
    ("axnn.fplan.input_grad_batch_ms", "ms"),
    ("axquant.qtrain.compile_ms", "ms"),
    ("axquant.finetune_s", "s"),
    ("axquant.qtrain.grad_batch_ms", "ms"),
    ("axserve.submit_us.p50", "us"),
    ("axserve.submit_us.p99", "us"),
    ("axserve.batches", "count"),
    ("axserve.mean_batch", "count"),
    ("axserve.mean_batch.exact", "count"),
    ("axserve.mean_batch.L40", "count"),
    ("axserve.mean_batch.1JFF", "count"),
    ("axserve.shed_overload", "count"),
    ("axserve.shed_deadline", "count"),
    ("axserve.queue_depth_max", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("process.setup.user_s", "s"),
    ("process.setup.sys_s", "s"),
    ("process.run.user_s", "s"),
    ("process.run.sys_s", "s"),
    ("process.peak_rss_mb", "MB"),
    ("axmul.lut_build_ms", "ms"),
    ("axdata.generate_ms", "ms"),
    ("axquant.quantize_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("serve.low.p50_ms", "ms"),
    ("serve.low.p99_ms", "ms"),
    ("serve.high.p50_ms", "ms"),
    ("serve.high.p99_ms", "ms"),
    ("serve.max_rps", "1/s"),
    ("serve.burst_rps", "1/s"),
];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn git_describe(dir: &std::path::Path) -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_owned())
}

fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        tracer,
    };
    match args.workload.as_str() {
        "heatmap-lenet5-bim" => heatmap::run_workload(&ctx, &heatmap::LENET5_BIM),
        "heatmap-alexnet-cr" => heatmap::run_workload(&ctx, &heatmap::ALEXNET_CR),
        "train-ffnn" => train::run_workload(&ctx),
        "serve-mixed" => serve::run_workload(&ctx),
        _ => unreachable!("workload names are checked by parse_args"),
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
    let run_id = workloads::derive_seed(args.seed, u64::from(args.trace));
    let tracer = Tracer::new(args.trace, run_id);
    let mut outcome = run(&args, &tracer);
    outcome.push("process.peak_rss_mb", procstat::peak_rss_mb(), "MB", 1);
    if args.trace {
        let spans = tracer.spans();
        outcome.push("trace.spans", spans.len() as f64, "count", 1);
        for (name, s) in trace::self_time_by_name(&spans) {
            let n = spans.iter().filter(|x| x.name == name).count();
            outcome.push(format!("self_s.{name}"), s, "s", n);
        }
        // A layer this workload does not exercise did no work: it reads 0.
        for (name, unit) in PER_LAYER {
            if outcome.get(name).is_none() {
                outcome.push(name, 0.0, unit, 0);
            }
        }
    }

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = dir.join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let git = git_describe(&dir);
    let kernel_tier = axnn::exec::FloatKernel::from_env().name();
    let manifest = Manifest {
        workload: &args.workload,
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        threads: axutil::parallel::num_threads(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel_tier,
        git: &git,
    };
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| {
            std::fs::write(
                out_dir.join(format!("{stem}.manifest.json")),
                manifest.to_json(&outcome),
            )
        })
        .and_then(|()| {
            if args.trace {
                tracer.write_json(&out_dir.join(format!("{stem}.spans.json")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        outcome
            .errors
            .push(format!("could not write the run files: {e}"));
    }

    println!(
        "perfbench {} seed={} trace={} threads={} cores={} kernel={} git={} hash={:016x}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        manifest.threads,
        manifest.cores,
        kernel_tier,
        git,
        outcome.result_hash
    );
    print!("{}", report::table(&outcome));
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report::result_line(&outcome, names));
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload train-ffnn --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "train-ffnn".to_owned(),
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload train-ffnn --trace 2")).is_err());
        assert!(parse_args(&argv("--workload train-ffnn --seed")).is_err());
        assert!(parse_args(&argv("--workload train-ffnn --seconds 0")).is_err());
    }

    /// BENCHMARK.json and this binary must agree on every name and unit.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |body: &str, key: &str| -> Vec<String> {
            body.match_indices(&format!("\"{key}\": \""))
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    rest[..rest.find('"').expect("string end")].to_owned()
                })
                .collect()
        };
        let section = |name: &str| -> String {
            let body = &json[json.find(&format!("\"{name}\"")).expect("section")..];
            body[..body.find(']').expect("list end")].to_owned()
        };
        assert_eq!(field(&section("workloads"), "name"), WORKLOADS);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let body = section(key);
            let names: Vec<&str> = table.iter().map(|m| m.0).collect();
            let units: Vec<&str> = table.iter().map(|m| m.1).collect();
            assert_eq!(field(&body, "name"), names, "{key} names");
            assert_eq!(field(&body, "unit"), units, "{key} units");
        }
    }
}
