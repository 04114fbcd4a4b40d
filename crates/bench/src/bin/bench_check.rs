//! The perf regression gate: validates the fresh `BENCH_*.json` reports
//! `bench_report` wrote into the current directory.
//!
//! Checks (see [`bench::check`]):
//!
//! * every report parses as JSON,
//! * every expected attack/model/workload entry is present,
//! * no `speedup` fell below the documented floor (default `0.8`, i.e. a
//!   20% jitter allowance below parity; override with
//!   `AXDNN_BENCH_MIN_SPEEDUP`),
//! * in `BENCH_train.json` and `BENCH_finetune.json`, a run at more
//!   than one thread is no slower than at one thread beyond the
//!   documented `1.5`x jitter allowance,
//! * fine-tuning still improves clean quantized accuracy over
//!   post-training quantization (exact — the pipeline is deterministic),
//! * the fault-campaign report (`BENCH_faults.json`) recorded a
//!   non-empty campaign with sound accuracies and met its LUT-rebuild
//!   throughput floor,
//! * the serving report (`BENCH_serve.json`, written by `loadgen`)
//!   conserves its request counters and every scenario still exhibits
//!   its injected failure mode.
//!
//! Reports load through [`bench::check::load_report`], so "never
//! generated — run the bench binary" and "corrupt — delete and re-run"
//! come out as different, actionable messages.
//!
//! Exits non-zero listing every violation, so CI fails loudly instead of
//! uploading a silently regressed artifact.

use bench::check::{expected_reports, load_report, min_speedup_from_env, validate_report};

fn main() {
    let min_speedup = min_speedup_from_env();
    let mut errs: Vec<String> = Vec::new();
    for spec in expected_reports() {
        let doc = match load_report(std::path::Path::new(spec.file)) {
            Ok(d) => d,
            Err(e) => {
                errs.push(e.to_string());
                continue;
            }
        };
        errs.extend(validate_report(&spec, &doc, min_speedup));
    }
    if errs.is_empty() {
        println!("bench_check: all reports healthy (speedup floor {min_speedup:.2})");
    } else {
        eprintln!("bench_check: {} violation(s):", errs.len());
        for e in &errs {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
}
