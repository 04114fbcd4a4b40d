//! The CI perf regression gate behind the `bench_check` binary.
//!
//! After `bench_report` runs, this module re-reads every fresh
//! `BENCH_*.json` report it writes (see [`expected_reports`] — the list
//! is data, so adding a report cannot silently skip validation) and
//! verifies that
//!
//! * each file parses as JSON (a tiny vendored-free parser — the
//!   container has no `serde`),
//! * every expected workload entry is present (an attack or model
//!   silently dropped from the report would otherwise pass unnoticed),
//! * no `speedup` field fell below `1.0` beyond the documented
//!   tolerance: the default floor is **0.8** (20% jitter allowance for
//!   noisy CI runners), overridable via `AXDNN_BENCH_MIN_SPEEDUP`,
//! * in the training reports (`BENCH_train.json`, `BENCH_finetune.json`),
//!   a run at more than one thread is no slower than at one thread beyond
//!   a documented jitter allowance ([`check_parallel_efficiency`]),
//! * fine-tuning still improves clean quantized accuracy over
//!   post-training quantization (`clean_accuracy.finetuned >
//!   clean_accuracy.ptq`). This check is *exact*: the pipeline is
//!   deterministic and thread-invariant, so the accuracies never jitter,
//! * the fault campaign report carries a non-empty campaign, sound
//!   accuracies and a met LUT-rebuild throughput floor
//!   (`lut_rebuild.meets_floor` — the floor itself is applied by
//!   `bench_report`, which keeps the JSON free of jittering timings and
//!   therefore byte-identical across runs),
//! * the universal-robustness report carries sound accuracies per
//!   multiplier and a hardening verdict that still holds
//!   (`verdict.hardening_helps` — like the fine-tuning gate this check
//!   is exact: the sweep is deterministic and thread-invariant, so
//!   `BENCH_universal.json` replays byte-identically),
//! * the moving-target defense report carries sound accuracies per
//!   victim (each fixed multiplier plus the `"ensemble"` row) and an
//!   honesty verdict that still holds: the adaptive EOT attacker scores
//!   no higher against the ensemble than the static attacker
//!   (`verdict.adaptive_no_better_than_static`, re-checked exactly over
//!   the ensemble row — the sweep is deterministic and thread-invariant,
//!   so `BENCH_mtd.json` replays byte-identically),
//! * the serving report (`BENCH_serve.json`, written by `loadgen`)
//!   conserves its request counters and each scenario still exhibits the
//!   failure mode it deterministically injects ([`check_serve_report`]).
//!
//! Report loading goes through [`load_report`], which keeps "the file
//! was never generated" ([`LoadError::Missing`]) apart from "the file is
//! corrupt" ([`LoadError::Malformed`]) — the two demand different fixes
//! and CI output should say which one applies.

use std::collections::HashMap;

/// A minimal JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded minimally: `\"`, `\\`, `\/`, `\n`,
    /// `\t`, `\r`).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(HashMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos:?}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => *other as char,
                });
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through byte by byte;
                // the reports are ASCII so this stays exact.
                out.push(c as char);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = HashMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

/// Why a report file could not be loaded — the two cases need different
/// operator responses, so [`load_report`] keeps them apart instead of
/// collapsing both into one "bad file" string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file does not exist: the report was never generated. The fix
    /// is to *run* `bench_report`, not to debug the file.
    Missing {
        /// The report path.
        file: String,
    },
    /// The file exists but is unreadable or not valid JSON: the report
    /// run was interrupted or the file was corrupted. The fix is to
    /// delete it and *re-run* `bench_report`.
    Malformed {
        /// The report path.
        file: String,
        /// What exactly went wrong (I/O error or first JSON syntax
        /// error).
        detail: String,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Missing { file } => write!(
                f,
                "{file}: report not found — run `cargo run --release -p bench --bin \
                 bench_report` (and `loadgen` for BENCH_serve.json) first; the gate \
                 validates fresh reports, it does not create them"
            ),
            LoadError::Malformed { file, detail } => write!(
                f,
                "{file}: report exists but is not valid ({detail}) — the writing run \
                 was likely interrupted; delete the file and re-run the bench binary"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// Reads and parses one report file, distinguishing *absent* from
/// *broken* (see [`LoadError`]).
///
/// # Errors
///
/// [`LoadError::Missing`] when the file does not exist,
/// [`LoadError::Malformed`] when it cannot be read or parsed.
pub fn load_report(path: &std::path::Path) -> Result<Json, LoadError> {
    let file = path.display().to_string();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(LoadError::Missing { file })
        }
        Err(e) => {
            return Err(LoadError::Malformed {
                file,
                detail: format!("unreadable: {e}"),
            })
        }
    };
    Json::parse(&text).map_err(|detail| LoadError::Malformed { file, detail })
}

/// The documented default speedup floor: `1.0` minus a 20% jitter
/// allowance for noisy CI runners. Override with
/// `AXDNN_BENCH_MIN_SPEEDUP`.
pub const DEFAULT_MIN_SPEEDUP: f64 = 0.8;

/// The speedup floor from the environment (or the documented default).
pub fn min_speedup_from_env() -> f64 {
    std::env::var("AXDNN_BENCH_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|v: &f64| v.is_finite() && *v > 0.0)
        .unwrap_or(DEFAULT_MIN_SPEEDUP)
}

/// One expected workload row of a report: its `entry_key` value plus a
/// floor *factor* applied to the global minimum speedup. Most workloads
/// use `1.0`; known-near-parity workloads (where the batched win is
/// within run-to-run noise) get a wider allowance so the gate flags
/// regressions, not jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectedEntry {
    /// The `entry_key` value (attack/model/workload name).
    pub name: &'static str,
    /// Multiplied into the global floor for this entry.
    pub floor_factor: f64,
}

impl ExpectedEntry {
    const fn new(name: &'static str) -> Self {
        ExpectedEntry {
            name,
            floor_factor: 1.0,
        }
    }

    const fn with_floor_factor(name: &'static str, floor_factor: f64) -> Self {
        ExpectedEntry { name, floor_factor }
    }
}

/// Validates one report: `results` must contain an entry whose
/// `entry_key` field matches every name in `expected` (extra entries are
/// fine), and every entry's `speedup` must be at least
/// `min_speedup * floor_factor` (unknown entries use factor `1.0`).
/// Returns the list of failures (empty = pass).
pub fn check_report(
    doc: &Json,
    file: &str,
    entry_key: &str,
    expected: &[ExpectedEntry],
    min_speedup: f64,
) -> Vec<String> {
    let mut errs = Vec::new();
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        return vec![format!("{file}: missing or non-array \"results\"")];
    };
    let mut seen: Vec<&str> = Vec::new();
    for (i, entry) in results.iter().enumerate() {
        let name = entry.get(entry_key).and_then(Json::as_str);
        match name {
            Some(n) => seen.push(n),
            None => errs.push(format!("{file}: results[{i}] lacks \"{entry_key}\"")),
        }
        let floor = min_speedup
            * name
                .and_then(|n| expected.iter().find(|e| e.name == n))
                .map_or(1.0, |e| e.floor_factor);
        match entry.get("speedup").and_then(Json::as_f64) {
            Some(s) if s >= floor => {}
            Some(s) => errs.push(format!(
                "{file}: {} speedup {s:.3} fell below the {floor:.2} floor",
                name.unwrap_or("<unnamed>"),
            )),
            None => errs.push(format!("{file}: results[{i}] lacks a numeric \"speedup\"")),
        }
    }
    for want in expected {
        if !seen.contains(&want.name) {
            errs.push(format!(
                "{file}: expected {entry_key} entry \"{}\" missing",
                want.name
            ));
        }
    }
    errs
}

/// Validates the fine-tuning accuracy gate: `clean_accuracy.finetuned`
/// must exceed `clean_accuracy.ptq`. Exact — the fine-tuning pipeline is
/// deterministic and thread-invariant, so these numbers never jitter.
pub fn check_finetune_accuracy(doc: &Json, file: &str) -> Vec<String> {
    let Some(acc) = doc.get("clean_accuracy") else {
        return vec![format!("{file}: missing \"clean_accuracy\"")];
    };
    match (
        acc.get("ptq").and_then(Json::as_f64),
        acc.get("finetuned").and_then(Json::as_f64),
    ) {
        (Some(ptq), Some(ft)) if ft > ptq => Vec::new(),
        (Some(ptq), Some(ft)) => vec![format!(
            "{file}: fine-tuning no longer improves clean quantized accuracy \
             (ptq {ptq:.4} vs finetuned {ft:.4})"
        )],
        _ => vec![format!(
            "{file}: clean_accuracy lacks numeric \"ptq\"/\"finetuned\""
        )],
    }
}

/// Validates the parallel-efficiency gate: when a report's
/// `parallel_threads` is above 1, every entry's `batched_parallel_ms`
/// must be at most [`MAX_PARALLEL_SLOWDOWN`] times its one-thread
/// `batched_ms`, so more threads never make the batched path slower
/// beyond timing jitter. A one-thread report passes: both columns then
/// time the same configuration. A missing `results` array is left to
/// [`check_report`].
pub fn check_parallel_efficiency(doc: &Json, file: &str, entry_key: &str) -> Vec<String> {
    let Some(threads) = doc.get("parallel_threads").and_then(Json::as_f64) else {
        return vec![format!("{file}: missing numeric \"parallel_threads\"")];
    };
    if threads <= 1.0 {
        return Vec::new();
    }
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        return Vec::new();
    };
    let mut errs = Vec::new();
    for (i, entry) in results.iter().enumerate() {
        let name = entry
            .get(entry_key)
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>");
        match (
            entry.get("batched_ms").and_then(Json::as_f64),
            entry.get("batched_parallel_ms").and_then(Json::as_f64),
        ) {
            (Some(one), Some(par)) if par <= MAX_PARALLEL_SLOWDOWN * one => {}
            (Some(one), Some(par)) => errs.push(format!(
                "{file}: {name} takes {par:.3} ms at {threads} threads against {one:.3} ms \
                 at 1 thread, beyond the {MAX_PARALLEL_SLOWDOWN}x jitter allowance"
            )),
            _ => errs.push(format!(
                "{file}: results[{i}] lacks numeric \"batched_ms\"/\"batched_parallel_ms\""
            )),
        }
    }
    errs
}

/// Validates the fault-campaign report (`BENCH_faults.json`): every
/// expected multiplier row is present with accuracies in `[0, 1]`, the
/// campaign injected at least one fault, and the LUT-rebuild throughput
/// floor was met (`lut_rebuild.meets_floor` — `bench_report` applies the
/// floor itself so the JSON stays free of jittering timings).
pub fn check_fault_report(
    doc: &Json,
    file: &str,
    entry_key: &str,
    expected: &[ExpectedEntry],
) -> Vec<String> {
    let mut errs = Vec::new();
    match doc
        .get("campaign")
        .and_then(|c| c.get("n_faults"))
        .and_then(Json::as_f64)
    {
        Some(n) if n >= 1.0 => {}
        Some(n) => errs.push(format!("{file}: campaign.n_faults {n} is empty")),
        None => errs.push(format!("{file}: missing numeric \"campaign.n_faults\"")),
    }
    match doc.get("lut_rebuild") {
        Some(lr) => {
            match lr.get("floor_per_s").and_then(Json::as_f64) {
                Some(f) if f > 0.0 => {}
                _ => errs.push(format!(
                    "{file}: lut_rebuild lacks a positive \"floor_per_s\""
                )),
            }
            match lr.get("meets_floor") {
                Some(Json::Bool(true)) => {}
                Some(Json::Bool(false)) => errs.push(format!(
                    "{file}: LUT-rebuild throughput fell below the floor"
                )),
                _ => errs.push(format!("{file}: lut_rebuild lacks boolean \"meets_floor\"")),
            }
        }
        None => errs.push(format!("{file}: missing \"lut_rebuild\"")),
    }
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        errs.push(format!("{file}: missing or non-array \"results\""));
        return errs;
    };
    let mut seen: Vec<&str> = Vec::new();
    const ACC_FIELDS: [&str; 6] = [
        "clean",
        "adv",
        "fault_clean_mean",
        "fault_clean_worst",
        "fault_adv_mean",
        "fault_adv_worst",
    ];
    for (i, entry) in results.iter().enumerate() {
        match entry.get(entry_key).and_then(Json::as_str) {
            Some(n) => seen.push(n),
            None => errs.push(format!("{file}: results[{i}] lacks \"{entry_key}\"")),
        }
        for field in ACC_FIELDS {
            match entry.get(field).and_then(Json::as_f64) {
                Some(a) if (0.0..=1.0).contains(&a) => {}
                Some(a) => errs.push(format!("{file}: results[{i}].{field} = {a} outside [0, 1]")),
                None => errs.push(format!("{file}: results[{i}] lacks numeric \"{field}\"")),
            }
        }
    }
    for want in expected {
        if !seen.contains(&want.name) {
            errs.push(format!(
                "{file}: expected {entry_key} entry \"{}\" missing",
                want.name
            ));
        }
    }
    errs
}

/// Validates the universal-robustness report (`BENCH_universal.json`):
/// every expected multiplier row is present with its four accuracies in
/// `[0, 1]`, the crafting configuration is sound (`eps > 0`,
/// `craft_epochs >= 1`, a non-empty `norm`), and universal adversarial
/// training still beats post-training quantization under the universal
/// delta (`verdict.hardening_helps` — `bench_report` computes the
/// verdict itself so the JSON stays free of float comparisons here, and
/// the deterministic pipeline makes the check exact).
pub fn check_universal_report(
    doc: &Json,
    file: &str,
    entry_key: &str,
    expected: &[ExpectedEntry],
) -> Vec<String> {
    let mut errs = Vec::new();
    match doc.get("norm").and_then(Json::as_str) {
        Some(n) if !n.is_empty() => {}
        _ => errs.push(format!("{file}: missing non-empty \"norm\"")),
    }
    match doc.get("eps").and_then(Json::as_f64) {
        Some(e) if e > 0.0 => {}
        Some(e) => errs.push(format!("{file}: eps {e} is not positive")),
        None => errs.push(format!("{file}: missing numeric \"eps\"")),
    }
    match doc.get("craft_epochs").and_then(Json::as_f64) {
        Some(e) if e >= 1.0 => {}
        Some(e) => errs.push(format!("{file}: craft_epochs {e} is empty")),
        None => errs.push(format!("{file}: missing numeric \"craft_epochs\"")),
    }
    match doc.get("verdict").and_then(|v| v.get("hardening_helps")) {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => errs.push(format!(
            "{file}: universal adversarial training no longer beats PTQ \
             under the universal delta"
        )),
        _ => errs.push(format!("{file}: verdict lacks boolean \"hardening_helps\"")),
    }
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        errs.push(format!("{file}: missing or non-array \"results\""));
        return errs;
    };
    let mut seen: Vec<&str> = Vec::new();
    const ACC_FIELDS: [&str; 4] = [
        "clean_before",
        "clean_after",
        "universal_before",
        "universal_after",
    ];
    for (i, entry) in results.iter().enumerate() {
        match entry.get(entry_key).and_then(Json::as_str) {
            Some(n) => seen.push(n),
            None => errs.push(format!("{file}: results[{i}] lacks \"{entry_key}\"")),
        }
        for field in ACC_FIELDS {
            match entry.get(field).and_then(Json::as_f64) {
                Some(a) if (0.0..=1.0).contains(&a) => {}
                Some(a) => errs.push(format!("{file}: results[{i}].{field} = {a} outside [0, 1]")),
                None => errs.push(format!("{file}: results[{i}] lacks numeric \"{field}\"")),
            }
        }
    }
    for want in expected {
        if !seen.contains(&want.name) {
            errs.push(format!(
                "{file}: expected {entry_key} entry \"{}\" missing",
                want.name
            ));
        }
    }
    errs
}

/// Validates the moving-target defense report (`BENCH_mtd.json`): every
/// expected victim row — each fixed multiplier plus the `"ensemble"`
/// moving target — is present with its three accuracies in `[0, 1]`,
/// the attack configuration is sound (`eps > 0`, `samples >= 1`), and
/// the honesty property still holds: an adaptive attacker that averages
/// gradients over the disclosed kernel distribution must score at least
/// as well as the static attacker against the ensemble, i.e. ensemble
/// accuracy under EOT never exceeds ensemble accuracy under static PGD
/// (checked both via `verdict.adaptive_no_better_than_static` and
/// exactly over the ensemble row — the sweep is deterministic, so
/// neither side jitters).
pub fn check_mtd_report(
    doc: &Json,
    file: &str,
    entry_key: &str,
    expected: &[ExpectedEntry],
) -> Vec<String> {
    let mut errs = Vec::new();
    match doc.get("eps").and_then(Json::as_f64) {
        Some(e) if e > 0.0 => {}
        Some(e) => errs.push(format!("{file}: eps {e} is not positive")),
        None => errs.push(format!("{file}: missing numeric \"eps\"")),
    }
    match doc.get("samples").and_then(Json::as_f64) {
        Some(s) if s >= 1.0 => {}
        Some(s) => errs.push(format!("{file}: samples {s} is empty")),
        None => errs.push(format!("{file}: missing numeric \"samples\"")),
    }
    match doc
        .get("verdict")
        .and_then(|v| v.get("adaptive_no_better_than_static"))
    {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => errs.push(format!(
            "{file}: the adaptive EOT attacker scored above the static \
             attacker on the ensemble"
        )),
        _ => errs.push(format!(
            "{file}: verdict lacks boolean \"adaptive_no_better_than_static\""
        )),
    }
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        errs.push(format!("{file}: missing or non-array \"results\""));
        return errs;
    };
    let mut seen: Vec<&str> = Vec::new();
    const ACC_FIELDS: [&str; 3] = ["clean", "static_adv", "adaptive_adv"];
    for (i, entry) in results.iter().enumerate() {
        let name = entry.get(entry_key).and_then(Json::as_str);
        match name {
            Some(n) => seen.push(n),
            None => errs.push(format!("{file}: results[{i}] lacks \"{entry_key}\"")),
        }
        let mut accs = HashMap::new();
        for field in ACC_FIELDS {
            match entry.get(field).and_then(Json::as_f64) {
                Some(a) if (0.0..=1.0).contains(&a) => {
                    accs.insert(field, a);
                }
                Some(a) => errs.push(format!("{file}: results[{i}].{field} = {a} outside [0, 1]")),
                None => errs.push(format!("{file}: results[{i}] lacks numeric \"{field}\"")),
            }
        }
        // The honesty check on the ensemble row itself, independent of
        // the recorded verdict: a report edited into inconsistency fails.
        if name == Some("ensemble") {
            if let (Some(&stat), Some(&adapt)) = (accs.get("static_adv"), accs.get("adaptive_adv"))
            {
                if adapt > stat + 1e-6 {
                    errs.push(format!(
                        "{file}: ensemble adaptive_adv {adapt} exceeds static_adv {stat} \
                         — the adaptive attacker must not be weaker than the static one"
                    ));
                }
            }
        }
    }
    if !seen.contains(&"ensemble") {
        errs.push(format!(
            "{file}: results lack the \"ensemble\" moving-target row"
        ));
    }
    for want in expected {
        if !seen.contains(&want.name) {
            errs.push(format!(
                "{file}: expected {entry_key} entry \"{}\" missing",
                want.name
            ));
        }
    }
    errs
}

/// Validates the serving loadgen report (`BENCH_serve.json`): every
/// expected scenario row is present with sound counters and latency
/// quantiles, counter conservation holds (`completed + shed + deadline +
/// poisoned == requests` — counters are exact even though timings
/// jitter), and each scenario exhibits the failure mode it was built to
/// drive (the load generator injects faults deterministically via
/// `FaultHook`, so these are not timing-dependent assertions):
///
/// * `steady` — everything completes;
/// * `overload` — at least one request shed with `Overloaded`;
/// * `poison` — at least one poisoned request and at least one retry;
/// * `deadline` — at least one deadline rejection.
pub fn check_serve_report(
    doc: &Json,
    file: &str,
    entry_key: &str,
    expected: &[ExpectedEntry],
) -> Vec<String> {
    let mut errs = Vec::new();
    let Some(results) = doc.get("results").and_then(Json::as_arr) else {
        return vec![format!("{file}: missing or non-array \"results\"")];
    };
    let mut seen: Vec<&str> = Vec::new();
    const COUNT_FIELDS: [&str; 6] = [
        "requests",
        "completed",
        "shed",
        "deadline",
        "poisoned",
        "retries",
    ];
    for (i, entry) in results.iter().enumerate() {
        let name = entry.get(entry_key).and_then(Json::as_str);
        match name {
            Some(n) => seen.push(n),
            None => errs.push(format!("{file}: results[{i}] lacks \"{entry_key}\"")),
        }
        let label = name.unwrap_or("<unnamed>");
        let num = |field: &str| entry.get(field).and_then(Json::as_f64);
        let mut counts = HashMap::new();
        for field in COUNT_FIELDS {
            match num(field) {
                Some(v) if v >= 0.0 && v.fract() == 0.0 => {
                    counts.insert(field, v);
                }
                Some(v) => errs.push(format!(
                    "{file}: {label}.{field} = {v} is not a non-negative integer"
                )),
                None => errs.push(format!("{file}: {label} lacks numeric \"{field}\"")),
            }
        }
        if let (Some(req), Some(done), Some(shed), Some(dl), Some(poi)) = (
            counts.get("requests"),
            counts.get("completed"),
            counts.get("shed"),
            counts.get("deadline"),
            counts.get("poisoned"),
        ) {
            if done + shed + dl + poi != *req {
                errs.push(format!(
                    "{file}: {label} loses requests: completed {done} + shed {shed} + \
                     deadline {dl} + poisoned {poi} != requests {req}"
                ));
            }
        }
        match (num("p50_ms"), num("p99_ms")) {
            (Some(p50), Some(p99)) if p50 >= 0.0 && p99 >= p50 => {}
            (Some(p50), Some(p99)) => errs.push(format!(
                "{file}: {label} latency quantiles unsound (p50 {p50}, p99 {p99})"
            )),
            _ => errs.push(format!(
                "{file}: {label} lacks numeric \"p50_ms\"/\"p99_ms\""
            )),
        }
        match num("throughput_per_s") {
            Some(t) if t > 0.0 => {}
            Some(t) => errs.push(format!(
                "{file}: {label} throughput_per_s {t} is not positive"
            )),
            None => errs.push(format!(
                "{file}: {label} lacks numeric \"throughput_per_s\""
            )),
        }
        // Scenario-specific semantics: the injected failure must show.
        let violated = match name {
            Some("steady") => (counts.get("completed") != counts.get("requests"))
                .then_some("not every request completed"),
            Some("overload") => {
                (counts.get("shed") <= Some(&0.0)).then_some("no request was shed under flood")
            }
            Some("poison") => (counts.get("poisoned") <= Some(&0.0)
                || counts.get("retries") <= Some(&0.0))
            .then_some("no poisoned request / no retry recorded"),
            Some("deadline") => {
                (counts.get("deadline") <= Some(&0.0)).then_some("no deadline rejection recorded")
            }
            _ => None,
        };
        if let Some(why) = violated {
            errs.push(format!(
                "{file}: scenario {label} lost its failure mode: {why}"
            ));
        }
    }
    for want in expected {
        if !seen.contains(&want.name) {
            errs.push(format!(
                "{file}: expected {entry_key} entry \"{}\" missing",
                want.name
            ));
        }
    }
    errs
}

/// How a report's contents are validated by [`validate_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// Scalar-vs-batched speedup rows ([`check_report`]).
    Speedup,
    /// Speedup rows plus the fine-tuning accuracy gate
    /// ([`check_finetune_accuracy`]).
    Finetune,
    /// Fault-campaign report ([`check_fault_report`]).
    FaultCampaign,
    /// Universal-robustness report ([`check_universal_report`]).
    Universal,
    /// Moving-target defense report ([`check_mtd_report`]).
    Mtd,
    /// Serving loadgen report ([`check_serve_report`]).
    Serve,
}

/// One report `bench_report` writes and `bench_check` validates.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpec {
    /// The JSON file name (always `BENCH_*.json` in the repo root).
    pub file: &'static str,
    /// The field naming each `results` entry (attack/model/workload/mult).
    pub entry_key: &'static str,
    /// Which validation applies.
    pub kind: ReportKind,
    /// The entries that must be present.
    pub expected: Vec<ExpectedEntry>,
    /// Whether the parallel-efficiency gate
    /// ([`check_parallel_efficiency`]) applies on top of `kind`.
    pub parallel_gate: bool,
}

/// Runs the right validation for one report. Returns the list of
/// failures (empty = pass).
pub fn validate_report(spec: &ReportSpec, doc: &Json, min_speedup: f64) -> Vec<String> {
    let mut errs = if spec.parallel_gate {
        check_parallel_efficiency(doc, spec.file, spec.entry_key)
    } else {
        Vec::new()
    };
    errs.extend(validate_kind(spec, doc, min_speedup));
    errs
}

/// The validation of `spec.kind`.
fn validate_kind(spec: &ReportSpec, doc: &Json, min_speedup: f64) -> Vec<String> {
    match spec.kind {
        ReportKind::Speedup => {
            check_report(doc, spec.file, spec.entry_key, &spec.expected, min_speedup)
        }
        ReportKind::Finetune => {
            let mut errs =
                check_report(doc, spec.file, spec.entry_key, &spec.expected, min_speedup);
            errs.extend(check_finetune_accuracy(doc, spec.file));
            errs
        }
        ReportKind::FaultCampaign => {
            check_fault_report(doc, spec.file, spec.entry_key, &spec.expected)
        }
        ReportKind::Universal => {
            check_universal_report(doc, spec.file, spec.entry_key, &spec.expected)
        }
        ReportKind::Mtd => check_mtd_report(doc, spec.file, spec.entry_key, &spec.expected),
        ReportKind::Serve => check_serve_report(doc, spec.file, spec.entry_key, &spec.expected),
    }
}

/// The parallel-efficiency jitter factor: at more than one thread a
/// batched training step may take at most `1.5` times its one-thread
/// time ([`check_parallel_efficiency`]). The timed batches are a few
/// milliseconds long, where thread start-up and a shared runner move a
/// single median by tens of percent; `1.5` absorbs that and still fails
/// a genuinely slower parallel path, such as the per-image gradient
/// buffers the factored fold replaced (8 FFNN images on a 2-vCPU host:
/// 5.3–8.3 ms at 2 threads against 3.4–4.3 ms at 1, up to 2.4x).
pub const MAX_PARALLEL_SLOWDOWN: f64 = 1.5;

/// Every report `bench_report` writes, with its validation kind and
/// expected entries. `bench_check` iterates this list, so a report added
/// here is automatically gated — and the tests below assert structural
/// invariants over the whole list instead of hard-coding its length.
///
/// Factors above `1.0` *ratchet*: they hold a landed win so a revert to
/// scalar parity fails the gate, each set ~25–30% under the measured
/// speedup to absorb CI-runner jitter. The `BENCH_gemm.json` conv
/// entries carry **1.875** — against the default `0.8` global floor that
/// is an absolute `1.5` speedup, the acceptance bar for the
/// register-tiled kernels on the LeNet-5 conv shapes (measured 1.66x /
/// 1.94x; the dense shape measured 2.13x and holds `1.75`).
/// `lenet5-1x28` in `BENCH_train.json` holds `1.3` (measured 1.40x once
/// the in-place-plan + tiled-kernel path landed, up from 1.31x), and
/// `ffnn-1x28` holds `2.0`, an absolute `1.6` speedup (measured 2.8–4.4x
/// once the factored dense-gradient fold stopped materializing a full
/// per-image gradient buffer; before that the dense-only step sat at
/// parity under a `0.75` factor). The attack rows hold `1.15`/`1.4`
/// (measured 1.36x single-step FGM, 1.58–1.70x for the iterative
/// attacks).
///
/// The training reports (`BENCH_train.json`, `BENCH_finetune.json`)
/// also carry the parallel-efficiency gate (`parallel_gate`,
/// [`check_parallel_efficiency`]): at more than one thread the batched
/// step may take at most [`MAX_PARALLEL_SLOWDOWN`] (`1.5`) times its
/// one-thread time.
pub fn expected_reports() -> Vec<ReportSpec> {
    vec![
        ReportSpec {
            file: "BENCH_attacks.json",
            entry_key: "attack",
            kind: ReportKind::Speedup,
            expected: vec![
                ExpectedEntry::with_floor_factor("FGM-linf", 1.15),
                ExpectedEntry::with_floor_factor("BIM-linf", 1.4),
                ExpectedEntry::with_floor_factor("PGD-linf", 1.4),
                ExpectedEntry::with_floor_factor("PGD-l2", 1.4),
            ],
            parallel_gate: false,
        },
        ReportSpec {
            file: "BENCH_train.json",
            entry_key: "model",
            kind: ReportKind::Speedup,
            expected: vec![
                ExpectedEntry::with_floor_factor("ffnn-1x28", 2.0),
                ExpectedEntry::with_floor_factor("lenet5-1x28", 1.3),
            ],
            parallel_gate: true,
        },
        ReportSpec {
            file: "BENCH_gemm.json",
            entry_key: "workload",
            kind: ReportKind::Speedup,
            expected: vec![
                ExpectedEntry::with_floor_factor("lenet5-conv1-6x576x25", 1.875),
                ExpectedEntry::with_floor_factor("lenet5-conv2-16x64x150", 1.875),
                ExpectedEntry::with_floor_factor("ffnn-dense1-300x784", 1.75),
            ],
            parallel_gate: false,
        },
        ReportSpec {
            file: "BENCH_finetune.json",
            entry_key: "workload",
            kind: ReportKind::Finetune,
            expected: vec![ExpectedEntry::new("finetune_grad_batch")],
            parallel_gate: true,
        },
        ReportSpec {
            file: "BENCH_faults.json",
            entry_key: "mult",
            kind: ReportKind::FaultCampaign,
            expected: vec![
                ExpectedEntry::new("1JFF"),
                ExpectedEntry::new("17KS"),
                ExpectedEntry::new("L40"),
            ],
            parallel_gate: false,
        },
        ReportSpec {
            file: "BENCH_universal.json",
            entry_key: "mult",
            kind: ReportKind::Universal,
            expected: vec![
                ExpectedEntry::new("1JFF"),
                ExpectedEntry::new("17KS"),
                ExpectedEntry::new("L40"),
            ],
            parallel_gate: false,
        },
        ReportSpec {
            file: "BENCH_mtd.json",
            entry_key: "mult",
            kind: ReportKind::Mtd,
            expected: vec![
                ExpectedEntry::new("1JFF"),
                ExpectedEntry::new("17KS"),
                ExpectedEntry::new("L40"),
                ExpectedEntry::new("ensemble"),
            ],
            parallel_gate: false,
        },
        ReportSpec {
            file: "BENCH_serve.json",
            entry_key: "scenario",
            kind: ReportKind::Serve,
            expected: vec![
                ExpectedEntry::new("steady"),
                ExpectedEntry::new("overload"),
                ExpectedEntry::new("poison"),
                ExpectedEntry::new("deadline"),
            ],
            parallel_gate: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_a_report_shape() {
        let doc = Json::parse(
            r#"{
  "bench": "attack_crafting",
  "images": 8,
  "eps": 0.1,
  "ok": true,
  "nothing": null,
  "results": [
    {"attack": "FGM-linf", "scalar_ms": 9.813, "speedup": 1.18},
    {"attack": "BIM-linf", "scalar_ms": 96.8, "speedup": 1.301}
  ]
}"#,
        )
        .unwrap();
        assert_eq!(doc.get("images").and_then(Json::as_f64), Some(8.0));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("nothing"), Some(&Json::Null));
        let results = doc.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[1].get("attack").and_then(Json::as_str),
            Some("BIM-linf")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} tail").is_err());
        assert!(Json::parse("").is_err());
    }

    fn want(names: &[&'static str]) -> Vec<ExpectedEntry> {
        names.iter().map(|n| ExpectedEntry::new(n)).collect()
    }

    #[test]
    fn check_passes_a_healthy_report() {
        let doc = Json::parse(
            r#"{"results": [
                {"attack": "FGM-linf", "speedup": 1.2},
                {"attack": "BIM-linf", "speedup": 0.85}
            ]}"#,
        )
        .unwrap();
        let errs = check_report(&doc, "f", "attack", &want(&["FGM-linf", "BIM-linf"]), 0.8);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn check_flags_low_speedup_and_missing_entry() {
        let doc = Json::parse(r#"{"results": [{"attack": "FGM-linf", "speedup": 0.5}]}"#).unwrap();
        let errs = check_report(&doc, "f", "attack", &want(&["FGM-linf", "PGD-l2"]), 0.8);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].contains("fell below"));
        assert!(errs[1].contains("PGD-l2"));
    }

    #[test]
    fn floor_factor_widens_the_allowance_per_entry() {
        let doc = Json::parse(
            r#"{"results": [
                {"model": "ffnn-1x28", "speedup": 0.65},
                {"model": "lenet5-1x28", "speedup": 0.65}
            ]}"#,
        )
        .unwrap();
        let expected = vec![
            ExpectedEntry::with_floor_factor("ffnn-1x28", 0.75),
            ExpectedEntry::new("lenet5-1x28"),
        ];
        // 0.65 clears ffnn's 0.8 * 0.75 = 0.6 floor but not lenet5's 0.8.
        let errs = check_report(&doc, "f", "model", &expected, 0.8);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("lenet5-1x28"));
    }

    #[test]
    fn check_flags_missing_results_and_speedup() {
        let doc = Json::parse(r#"{"bench": "x"}"#).unwrap();
        assert_eq!(check_report(&doc, "f", "attack", &[], 0.8).len(), 1);
        let doc = Json::parse(r#"{"results": [{"attack": "FGM-linf"}]}"#).unwrap();
        let errs = check_report(&doc, "f", "attack", &want(&["FGM-linf"]), 0.8);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("speedup"));
    }

    #[test]
    fn finetune_accuracy_gate() {
        let good =
            Json::parse(r#"{"clean_accuracy": {"ptq": 0.795, "finetuned": 0.925}}"#).unwrap();
        assert!(check_finetune_accuracy(&good, "f").is_empty());
        let bad = Json::parse(r#"{"clean_accuracy": {"ptq": 0.9, "finetuned": 0.9}}"#).unwrap();
        assert_eq!(check_finetune_accuracy(&bad, "f").len(), 1);
        let missing = Json::parse(r#"{"bench": "finetune"}"#).unwrap();
        assert_eq!(check_finetune_accuracy(&missing, "f").len(), 1);
    }

    /// A training report at `threads` threads with one entry timed at
    /// `one` ms on one thread and `par` ms in parallel.
    fn train_doc(threads: u32, one: f64, par: f64) -> Json {
        Json::parse(&format!(
            r#"{{"parallel_threads": {threads}, "results": [
                {{"model": "ffnn-1x28", "batched_ms": 2.0, "batched_parallel_ms": 1.4}},
                {{"model": "lenet5-1x28", "batched_ms": {one}, "batched_parallel_ms": {par}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn parallel_efficiency_gate() {
        // Faster in parallel, and up to the 1.5x jitter allowance, passes.
        assert!(check_parallel_efficiency(&train_doc(2, 4.0, 2.5), "f", "model").is_empty());
        assert!(check_parallel_efficiency(&train_doc(2, 4.0, 6.0), "f", "model").is_empty());
        // The per-image-buffer slowdown (7.24 ms against 3.36 ms) fails
        // and names the entry.
        let errs = check_parallel_efficiency(&train_doc(2, 3.36, 7.24), "f", "model");
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("lenet5-1x28"), "{errs:?}");
        // At one thread both columns time the same run: never gated.
        assert!(check_parallel_efficiency(&train_doc(1, 4.0, 9.0), "f", "model").is_empty());
    }

    #[test]
    fn parallel_efficiency_gate_flags_missing_fields() {
        let doc = Json::parse(r#"{"results": []}"#).unwrap();
        let errs = check_parallel_efficiency(&doc, "f", "model");
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("parallel_threads"));
        let doc = Json::parse(
            r#"{"parallel_threads": 2, "results": [{"model": "m", "batched_ms": 1.0}]}"#,
        )
        .unwrap();
        let errs = check_parallel_efficiency(&doc, "f", "model");
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("batched_parallel_ms"));
    }

    #[test]
    fn parallel_gate_applies_to_the_training_reports_only() {
        let reports = expected_reports();
        let gated: Vec<&str> = reports
            .iter()
            .filter(|r| r.parallel_gate)
            .map(|r| r.file)
            .collect();
        assert_eq!(gated, ["BENCH_train.json", "BENCH_finetune.json"]);
        // Through `validate_report`: a healthy train report passes, and
        // the same report with a slow parallel column fails.
        let train = reports
            .iter()
            .find(|r| r.file == "BENCH_train.json")
            .unwrap();
        let healthy = Json::parse(
            r#"{"parallel_threads": 2, "results": [
                {"model": "ffnn-1x28", "speedup": 3.0, "batched_ms": 1.0, "batched_parallel_ms": 0.7},
                {"model": "lenet5-1x28", "speedup": 1.5, "batched_ms": 2.0, "batched_parallel_ms": 1.3}
            ]}"#,
        )
        .unwrap();
        assert!(validate_report(train, &healthy, 0.8).is_empty());
        let slow = Json::parse(
            r#"{"parallel_threads": 2, "results": [
                {"model": "ffnn-1x28", "speedup": 3.0, "batched_ms": 1.0, "batched_parallel_ms": 1.7},
                {"model": "lenet5-1x28", "speedup": 1.5, "batched_ms": 2.0, "batched_parallel_ms": 1.3}
            ]}"#,
        )
        .unwrap();
        assert_eq!(validate_report(train, &slow, 0.8).len(), 1);
    }

    #[test]
    fn ffnn_train_floor_is_ratcheted() {
        let reports = expected_reports();
        let train = reports
            .iter()
            .find(|r| r.file == "BENCH_train.json")
            .unwrap();
        let doc = |speedup: f64| {
            Json::parse(&format!(
                r#"{{"results": [
                    {{"model": "ffnn-1x28", "speedup": {speedup}}},
                    {{"model": "lenet5-1x28", "speedup": 1.5}}
                ]}}"#
            ))
            .unwrap()
        };
        // 0.8 * 2.0 = 1.6: the old parity speedup now fails.
        assert_eq!(
            check_report(&doc(0.97), "f", "model", &train.expected, 0.8).len(),
            1
        );
        assert!(check_report(&doc(2.8), "f", "model", &train.expected, 0.8).is_empty());
    }

    fn healthy_fault_doc() -> Json {
        Json::parse(
            r#"{
  "bench": "fault_campaign",
  "campaign": {"n_faults": 6, "seed": 64023},
  "lut_rebuild": {"floor_per_s": 5.0, "meets_floor": true},
  "results": [
    {"mult": "1JFF", "sites": 1000, "clean": 0.9, "adv": 0.5,
     "fault_clean_mean": 0.85, "fault_clean_worst": 0.6,
     "fault_adv_mean": 0.45, "fault_adv_worst": 0.2}
  ]
}"#,
        )
        .unwrap()
    }

    #[test]
    fn fault_check_passes_a_healthy_report() {
        let errs = check_fault_report(
            &healthy_fault_doc(),
            "f",
            "mult",
            &[ExpectedEntry::new("1JFF")],
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn fault_check_flags_broken_reports() {
        // Missed floor.
        let doc = Json::parse(
            r#"{"campaign": {"n_faults": 2},
                "lut_rebuild": {"floor_per_s": 5.0, "meets_floor": false},
                "results": []}"#,
        )
        .unwrap();
        let errs = check_fault_report(&doc, "f", "mult", &[ExpectedEntry::new("1JFF")]);
        assert!(
            errs.iter().any(|e| e.contains("below the floor")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("1JFF")), "{errs:?}");

        // Empty campaign and out-of-range accuracy.
        let doc = Json::parse(
            r#"{"campaign": {"n_faults": 0},
                "lut_rebuild": {"floor_per_s": 5.0, "meets_floor": true},
                "results": [
                  {"mult": "1JFF", "clean": 1.5, "adv": 0.5,
                   "fault_clean_mean": 0.8, "fault_clean_worst": 0.6,
                   "fault_adv_mean": 0.4, "fault_adv_worst": 0.2}
                ]}"#,
        )
        .unwrap();
        let errs = check_fault_report(&doc, "f", "mult", &[]);
        assert!(errs.iter().any(|e| e.contains("n_faults")), "{errs:?}");
        assert!(
            errs.iter().any(|e| e.contains("outside [0, 1]")),
            "{errs:?}"
        );

        // Structurally missing pieces.
        let doc = Json::parse(r#"{"bench": "fault_campaign"}"#).unwrap();
        let errs = check_fault_report(&doc, "f", "mult", &[]);
        assert_eq!(errs.len(), 3, "{errs:?}");
    }

    #[test]
    fn validate_report_dispatches_by_kind() {
        let spec = ReportSpec {
            file: "f",
            entry_key: "mult",
            kind: ReportKind::FaultCampaign,
            expected: vec![ExpectedEntry::new("1JFF")],
            parallel_gate: false,
        };
        assert!(validate_report(&spec, &healthy_fault_doc(), 0.8).is_empty());
        // A Finetune spec on the same doc fails both the speedup rows
        // and the accuracy gate.
        let ft = ReportSpec {
            kind: ReportKind::Finetune,
            ..spec
        };
        assert!(!validate_report(&ft, &healthy_fault_doc(), 0.8).is_empty());
    }

    fn healthy_universal_doc() -> Json {
        Json::parse(
            r#"{
  "bench": "universal_robustness",
  "norm": "linf",
  "eps": 0.1,
  "craft_epochs": 5,
  "verdict": {"hardening_helps": true},
  "results": [
    {"mult": "1JFF", "clean_before": 0.9, "universal_before": 0.4,
     "clean_after": 0.88, "universal_after": 0.7}
  ]
}"#,
        )
        .unwrap()
    }

    #[test]
    fn universal_check_passes_a_healthy_report() {
        let errs = check_universal_report(
            &healthy_universal_doc(),
            "u",
            "mult",
            &[ExpectedEntry::new("1JFF")],
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn universal_check_flags_broken_reports() {
        // A failed hardening verdict, an out-of-range accuracy and a
        // missing expected multiplier.
        let doc = Json::parse(
            r#"{"norm": "linf", "eps": 0.1, "craft_epochs": 5,
                "verdict": {"hardening_helps": false},
                "results": [
                  {"mult": "L40", "clean_before": 0.9, "universal_before": 1.4,
                   "clean_after": 0.9, "universal_after": 0.7}
                ]}"#,
        )
        .unwrap();
        let errs = check_universal_report(&doc, "u", "mult", &[ExpectedEntry::new("1JFF")]);
        assert!(
            errs.iter().any(|e| e.contains("no longer beats PTQ")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("outside [0, 1]")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("1JFF")), "{errs:?}");

        // A degenerate crafting config.
        let doc = Json::parse(
            r#"{"norm": "linf", "eps": 0.0, "craft_epochs": 0,
                "verdict": {"hardening_helps": true}, "results": []}"#,
        )
        .unwrap();
        let errs = check_universal_report(&doc, "u", "mult", &[]);
        assert!(errs.iter().any(|e| e.contains("not positive")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("craft_epochs")), "{errs:?}");

        // Structurally missing pieces: norm, eps, craft_epochs, verdict
        // and the results array.
        let doc = Json::parse(r#"{"bench": "universal_robustness"}"#).unwrap();
        let errs = check_universal_report(&doc, "u", "mult", &[]);
        assert_eq!(errs.len(), 5, "{errs:?}");
    }

    #[test]
    fn universal_dispatch_by_kind() {
        let spec = ReportSpec {
            file: "u",
            entry_key: "mult",
            kind: ReportKind::Universal,
            expected: vec![ExpectedEntry::new("1JFF")],
            parallel_gate: false,
        };
        assert!(validate_report(&spec, &healthy_universal_doc(), 0.8).is_empty());
        // The fault checker rejects the same doc: the dispatch is real.
        let fc = ReportSpec {
            kind: ReportKind::FaultCampaign,
            ..spec
        };
        assert!(!validate_report(&fc, &healthy_universal_doc(), 0.8).is_empty());
    }

    #[test]
    fn default_floor_documented() {
        assert_eq!(DEFAULT_MIN_SPEEDUP, 0.8);
    }

    fn healthy_mtd_doc() -> Json {
        Json::parse(
            r#"{
  "bench": "mtd_robustness",
  "eps": 0.1,
  "samples": 2,
  "seed": 893,
  "verdict": {"adaptive_no_better_than_static": true},
  "results": [
    {"mult": "1JFF", "clean": 0.9, "static_adv": 0.3, "adaptive_adv": 0.3},
    {"mult": "ensemble", "clean": 0.88, "static_adv": 0.45, "adaptive_adv": 0.35}
  ]
}"#,
        )
        .unwrap()
    }

    #[test]
    fn mtd_check_passes_a_healthy_report() {
        let errs = check_mtd_report(
            &healthy_mtd_doc(),
            "m",
            "mult",
            &want(&["1JFF", "ensemble"]),
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn mtd_check_flags_broken_reports() {
        // A failed honesty verdict, an out-of-range accuracy and a
        // missing expected multiplier.
        let doc = Json::parse(
            r#"{"eps": 0.1, "samples": 2,
                "verdict": {"adaptive_no_better_than_static": false},
                "results": [
                  {"mult": "ensemble", "clean": 1.4, "static_adv": 0.4,
                   "adaptive_adv": 0.3}
                ]}"#,
        )
        .unwrap();
        let errs = check_mtd_report(&doc, "m", "mult", &[ExpectedEntry::new("1JFF")]);
        assert!(
            errs.iter().any(|e| e.contains("scored above the static")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("outside [0, 1]")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("1JFF")), "{errs:?}");

        // The row-level honesty check is independent of the verdict: a
        // report whose verdict says "true" but whose ensemble row says
        // otherwise is inconsistent and fails.
        let doc = Json::parse(
            r#"{"eps": 0.1, "samples": 2,
                "verdict": {"adaptive_no_better_than_static": true},
                "results": [
                  {"mult": "ensemble", "clean": 0.9, "static_adv": 0.3,
                   "adaptive_adv": 0.6}
                ]}"#,
        )
        .unwrap();
        let errs = check_mtd_report(&doc, "m", "mult", &[]);
        assert!(
            errs.iter().any(|e| e.contains("exceeds static_adv")),
            "{errs:?}"
        );

        // A report without the ensemble row is not a moving-target
        // report at all.
        let doc = Json::parse(
            r#"{"eps": 0.1, "samples": 2,
                "verdict": {"adaptive_no_better_than_static": true},
                "results": [
                  {"mult": "1JFF", "clean": 0.9, "static_adv": 0.3,
                   "adaptive_adv": 0.3}
                ]}"#,
        )
        .unwrap();
        let errs = check_mtd_report(&doc, "m", "mult", &[]);
        assert!(errs.iter().any(|e| e.contains("\"ensemble\"")), "{errs:?}");

        // Structurally missing pieces: eps, samples, verdict and the
        // results array (which also covers the missing ensemble row).
        let doc = Json::parse(r#"{"bench": "mtd_robustness"}"#).unwrap();
        let errs = check_mtd_report(&doc, "m", "mult", &[]);
        assert_eq!(errs.len(), 4, "{errs:?}");
    }

    #[test]
    fn mtd_dispatch_by_kind() {
        let spec = ReportSpec {
            file: "m",
            entry_key: "mult",
            kind: ReportKind::Mtd,
            expected: want(&["1JFF", "ensemble"]),
            parallel_gate: false,
        };
        assert!(validate_report(&spec, &healthy_mtd_doc(), 0.8).is_empty());
        // The universal checker rejects the same doc: the dispatch is real.
        let uni = ReportSpec {
            kind: ReportKind::Universal,
            ..spec
        };
        assert!(!validate_report(&uni, &healthy_mtd_doc(), 0.8).is_empty());
    }

    fn healthy_serve_doc() -> Json {
        Json::parse(
            r#"{
  "bench": "serve_loadgen",
  "results": [
    {"scenario": "steady", "requests": 64, "completed": 64, "shed": 0,
     "deadline": 0, "poisoned": 0, "retries": 0,
     "throughput_per_s": 812.5, "p50_ms": 1.2, "p99_ms": 4.7},
    {"scenario": "overload", "requests": 64, "completed": 40, "shed": 24,
     "deadline": 0, "poisoned": 0, "retries": 0,
     "throughput_per_s": 310.0, "p50_ms": 2.0, "p99_ms": 9.5},
    {"scenario": "poison", "requests": 16, "completed": 15, "shed": 0,
     "deadline": 0, "poisoned": 1, "retries": 6,
     "throughput_per_s": 120.0, "p50_ms": 1.5, "p99_ms": 6.0},
    {"scenario": "deadline", "requests": 16, "completed": 10, "shed": 0,
     "deadline": 6, "poisoned": 0, "retries": 0,
     "throughput_per_s": 95.0, "p50_ms": 1.1, "p99_ms": 8.0}
  ]
}"#,
        )
        .unwrap()
    }

    fn serve_expected() -> Vec<ExpectedEntry> {
        want(&["steady", "overload", "poison", "deadline"])
    }

    #[test]
    fn serve_check_passes_a_healthy_report() {
        let errs = check_serve_report(&healthy_serve_doc(), "f", "scenario", &serve_expected());
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn serve_check_flags_lost_requests_and_lost_failure_modes() {
        // Conservation violated (a request vanished without a verdict).
        let doc = Json::parse(
            r#"{"results": [
                {"scenario": "steady", "requests": 10, "completed": 9, "shed": 0,
                 "deadline": 0, "poisoned": 0, "retries": 0,
                 "throughput_per_s": 100.0, "p50_ms": 1.0, "p99_ms": 2.0}
            ]}"#,
        )
        .unwrap();
        let errs = check_serve_report(&doc, "f", "scenario", &[]);
        assert!(
            errs.iter().any(|e| e.contains("loses requests")),
            "{errs:?}"
        );
        // And steady's own invariant also trips.
        assert!(errs.iter().any(|e| e.contains("failure mode")), "{errs:?}");

        // Overload that never shed = the scenario stopped testing
        // anything.
        let doc = Json::parse(
            r#"{"results": [
                {"scenario": "overload", "requests": 10, "completed": 10, "shed": 0,
                 "deadline": 0, "poisoned": 0, "retries": 0,
                 "throughput_per_s": 100.0, "p50_ms": 1.0, "p99_ms": 2.0}
            ]}"#,
        )
        .unwrap();
        let errs = check_serve_report(&doc, "f", "scenario", &[]);
        assert!(errs.iter().any(|e| e.contains("shed")), "{errs:?}");

        // Unsound quantiles and non-integer counters.
        let doc = Json::parse(
            r#"{"results": [
                {"scenario": "steady", "requests": 10.5, "completed": 10, "shed": 0,
                 "deadline": 0, "poisoned": 0, "retries": 0,
                 "throughput_per_s": 0.0, "p50_ms": 5.0, "p99_ms": 2.0}
            ]}"#,
        )
        .unwrap();
        let errs = check_serve_report(&doc, "f", "scenario", &[]);
        assert!(
            errs.iter().any(|e| e.contains("non-negative integer")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("quantiles")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("not positive")), "{errs:?}");

        // Missing scenario row.
        let errs = check_serve_report(&healthy_serve_doc(), "f", "scenario", &want(&["warmup"]));
        assert!(errs.iter().any(|e| e.contains("warmup")), "{errs:?}");
    }

    #[test]
    fn load_report_distinguishes_missing_from_malformed() {
        let dir = std::env::temp_dir().join(format!(
            "axdnn-check-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // Missing: never generated.
        let missing = dir.join("BENCH_never_written.json");
        let err = load_report(&missing).unwrap_err();
        assert!(matches!(err, LoadError::Missing { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("not found"), "{msg}");
        assert!(msg.contains("bench_report"), "actionable: {msg}");

        // Malformed: exists, but truncated mid-write.
        let broken = dir.join("BENCH_truncated.json");
        std::fs::write(&broken, "{\"bench\": \"serve_loadgen\", \"resu").unwrap();
        let err = load_report(&broken).unwrap_err();
        assert!(matches!(err, LoadError::Malformed { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("re-run"), "actionable: {msg}");
        assert!(
            !msg.contains("not found"),
            "malformed must not read as missing: {msg}"
        );

        // Healthy: parses.
        let good = dir.join("BENCH_good.json");
        std::fs::write(&good, "{\"results\": []}").unwrap();
        let doc = load_report(&good).unwrap();
        assert_eq!(
            doc.get("results").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Structural invariants over the whole report list, replacing the
    /// old hard-coded length-3 assertion: adding a bench file extends
    /// the list without rewriting this test.
    #[test]
    fn expected_reports_are_well_formed() {
        let reports = expected_reports();
        assert!(
            reports.iter().any(|r| r.file == "BENCH_faults.json"),
            "fault campaign report must be gated"
        );
        for (i, spec) in reports.iter().enumerate() {
            assert!(spec.file.starts_with("BENCH_"), "{}", spec.file);
            assert!(spec.file.ends_with(".json"), "{}", spec.file);
            assert!(!spec.entry_key.is_empty());
            assert!(
                !spec.expected.is_empty(),
                "{} expects no entries",
                spec.file
            );
            assert!(
                reports[..i].iter().all(|r| r.file != spec.file),
                "duplicate report file {}",
                spec.file
            );
        }
    }
}
