//! `serve-mixed`: an open loop of independent users into one
//! `axserve::Server`.
//!
//! The server hosts the FFNN and LeNet-5 with the kernels `exact`, `L40`
//! and `mtd`, a moving-target ensemble over {1JFF, L40}. Each request
//! draws a seeded (model, kernel, image). `QPlan` runs at batch ≤ 8 here,
//! bound by latency, and the mixed kernels split batches. The loop runs
//! at two fixed rates, `low` (well under capacity) and `high` (near it),
//! then climbs a rate ladder until the p99 limit is missed or a backlog
//! grows. One generator thread sends on the schedule; collector threads
//! wait for the answers, so a slow answer never delays a later send.
//! Every answer is compared bit for bit with the offline `QPlan` logits
//! of its model and answering kernel.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use axdata::mnist::{MnistConfig, SynthMnist};
use axdata::Dataset;
use axmul::{ExactMul, MulLut, Registry};
use axnn::train::{fit, TrainConfig};
use axnn::{zoo, Sequential};
use axquant::{KernelPolicy, Placement, QuantModel};
use axserve::{Request, ResponseHandle, ServeError, Server, ServerConfig};
use axtensor::Tensor;
use axutil::rng::Rng;

use super::{forward_work, push_cpu, push_setup, push_setup_layers, repeated_setup, timed, Ctx};
use crate::openloop::{backlog_grows, draws, poisson_schedule, Draw, Lateness};
use crate::procstat::CpuTimes;
use crate::report::{Fnv, Outcome};
use crate::stats::{median, percentile, sorted, Latency};
use crate::trace::{SpanId, Tracer};

/// Hosted models, in draw order.
const MODELS: [&str; 2] = ["ffnn", "lenet5"];
/// Requestable kernels, in draw order.
const KERNELS: [&str; 3] = ["exact", "L40", "mtd"];
/// Kernels that can answer (the ensemble's members included).
const ANSWERING: [&str; 3] = ["exact", "L40", "1JFF"];
/// The ensemble's members.
const MTD_MEMBERS: [&str; 2] = ["1JFF", "L40"];
/// Distinct images per model.
const POOL: usize = 256;
/// Fixed offered rates, requests per second: `low` well under the
/// capacity of a 2-core host (about 4500/s), `high` at about half of it.
const RATE_LOW: f64 = 800.0;
const RATE_HIGH: f64 = 2500.0;
/// Requests per fixed-rate round: a round's p99 then has ten samples
/// beyond it.
const N_ROUND: usize = 1000;
/// Requests per capacity burst, all due at once: long enough to drown
/// the start-up of a burst, short enough to fit the admission queue.
const N_BURST: usize = 3000;
/// Low/high cycles run at least this often, whatever `--seconds` says.
const MIN_CYCLES: u64 = 3;
/// The ladder's growth per step and its step count.
const LADDER_GROWTH: f64 = 1.15;
const LADDER_STEPS: u64 = 10;
/// p99 limit a ladder step must meet.
const LIMIT_P99_MS: f64 = 20.0;
/// Admission queue capacity.
const QUEUE_CAPACITY: usize = 4096;
/// Collector threads waiting on answers, round-robin by request index,
/// so one slow answer hides the completion of at most every 16th
/// request behind it.
const COLLECTORS: usize = 16;

struct Setup {
    pool: Dataset,
    floats: Vec<Sequential>,
    models: Vec<QuantModel>,
    luts: Vec<(&'static str, MulLut)>,
}

fn train_small(model: &mut Sequential, data: &Dataset, seed: u64) {
    fit(
        model,
        data,
        &TrainConfig {
            epochs: 1,
            lr: 0.08,
            seed,
            ..Default::default()
        },
    );
}

fn setup(ctx: &Ctx<'_>, parent: Option<SpanId>) -> (Setup, Server) {
    let t = ctx.tracer;
    let (train, pool) = t.span("axdata.generate", parent, |_| {
        let gen = |n, seed| {
            SynthMnist::generate(&MnistConfig {
                n,
                seed,
                ..Default::default()
            })
        };
        (gen(400, ctx.derive(1)), gen(POOL, ctx.derive(2)))
    });
    let mut ffnn = zoo::ffnn(&mut Rng::seed_from_u64(ctx.derive(3)));
    let mut lenet = zoo::lenet5(&mut Rng::seed_from_u64(ctx.derive(4)));
    t.span("axnn.fit", parent, |_| {
        train_small(&mut ffnn, &train, ctx.derive(5));
        train_small(&mut lenet, &train, ctx.derive(6));
    });
    t.count("axnn.fit_images", (2 * train.len()) as f64);
    let calib: Vec<Tensor> = (0..32).map(|i| train.image(i).clone()).collect();
    let models = t.span("axquant.quantize", parent, |_| {
        vec![
            QuantModel::from_float(&ffnn, &calib, Placement::All).expect("the FFNN quantizes"),
            QuantModel::from_float(&lenet, &calib, Placement::ConvOnly).expect("LeNet-5 quantizes"),
        ]
    });
    let luts: Vec<(&'static str, MulLut)> = t.span("axmul.lut_build", parent, |_| {
        let reg = Registry::standard();
        ["L40", "1JFF"]
            .into_iter()
            .map(|n| (n, reg.build_lut(n).expect("registered kernel")))
            .collect()
    });
    let server = t.span("axserve.start", parent, |_| {
        let mut b = Server::builder();
        for (name, m) in MODELS.iter().zip(&models) {
            b = b.model(*name, m.clone());
        }
        for (name, lut) in &luts {
            b = b.kernel(*name, lut.clone());
        }
        b.ensemble(
            "mtd",
            &MTD_MEMBERS,
            KernelPolicy::uniform(MTD_MEMBERS.len(), ctx.derive(7)),
        )
        .serve(ServerConfig {
            workers: axutil::parallel::num_threads(),
            // Deep enough that overload shows as queueing delay, which the
            // ladder detects, rather than as shedding.
            queue_capacity: QUEUE_CAPACITY,
            ..ServerConfig::default()
        })
    });
    let floats = vec![ffnn, lenet];
    (
        Setup {
            pool,
            floats,
            models,
            luts,
        },
        server,
    )
}

/// Offline logits `[model][answering kernel][image]`, from one compiled
/// `QPlan` per model. Traced, this pass is also the outside view of the
/// server's engine: the same `QPlan` on the same models and kernels.
fn reference(s: &Setup, t: &Tracer) -> Vec<Vec<Vec<Tensor>>> {
    let images: Vec<Tensor> = (0..s.pool.len()).map(|i| s.pool.image(i).clone()).collect();
    s.models
        .iter()
        .map(|m| {
            let plan = t.span("axquant.qplan.compile", None, |_| m.plan(images[0].dims()));
            ANSWERING
                .iter()
                .map(|&k| {
                    let rows = t.span("axquant.qplan.predict", None, |_| {
                        match s.luts.iter().find(|(n, _)| *n == k) {
                            Some((_, lut)) => plan.forward_batch_with(&images, &[lut]),
                            None => plan.forward_batch_with(&images, &[&ExactMul]),
                        }
                    });
                    t.count("axquant.qplan.forwards", images.len() as f64);
                    rows.into_iter().map(|mut r| r.remove(0)).collect()
                })
                .collect()
        })
        .collect()
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Answered,
    Wrong,
    Shed,
    Deadline,
    Poisoned,
    Other,
}

/// One phase's per-request records, in due order.
struct Phase {
    /// Latency from the due time, ms; `INFINITY` for failed requests.
    latency_ms: Vec<f64>,
    late_s: Vec<f64>,
    ends: Vec<End>,
    /// Wall seconds from the start of the phase to its last answer.
    span_s: f64,
    submit_us: Vec<f64>,
    queue_depth_max: usize,
    hash: u64,
}

impl Phase {
    fn failed(&self) -> usize {
        self.ends.iter().filter(|&&e| e != End::Answered).count()
    }
}

fn check(
    r: Result<axserve::Response, ServeError>,
    d: &Draw,
    refs: &[Vec<Vec<Tensor>>],
) -> (End, u64) {
    let resp = match r {
        Ok(resp) => resp,
        Err(ServeError::Overloaded { .. }) => return (End::Shed, 0),
        Err(ServeError::DeadlineExceeded) => return (End::Deadline, 0),
        Err(ServeError::Poisoned { .. }) => return (End::Poisoned, 0),
        Err(_) => return (End::Other, 0),
    };
    let requested = KERNELS[d.kernel];
    let kernel_ok = if requested == "mtd" {
        resp.sampled && MTD_MEMBERS.contains(&resp.kernel.as_str())
    } else {
        !resp.sampled && resp.kernel == requested
    };
    let Some(k) = ANSWERING.iter().position(|&n| n == resp.kernel) else {
        return (End::Wrong, 0);
    };
    let expected = &refs[d.model][k][d.image];
    let same = kernel_ok
        && !resp.degraded
        && resp.class == expected.argmax()
        && resp.logits.dims() == expected.dims()
        && resp
            .logits
            .data()
            .iter()
            .zip(expected.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let mut h = Fnv::default();
    h.u64(k as u64);
    h.f32s(resp.logits.data());
    (if same { End::Answered } else { End::Wrong }, h.finish())
}

/// Sets its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Sends `schedule.len()` requests on `schedule` (seconds from the
/// phase start) and collects every answer.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    server: &Server,
    pool: &Dataset,
    refs: &[Vec<Vec<Tensor>>],
    draws: &[Draw],
    schedule: &[f64],
    tracer: &Tracer,
    name: &'static str,
) -> Phase {
    let n = schedule.len();
    let stop = AtomicBool::new(false);
    let depth_max = AtomicUsize::new(0);
    let mut late_s = vec![0.0; n];
    let mut ends = vec![End::Other; n];
    let mut latency_ms = vec![f64::INFINITY; n];
    let mut submit_us = Vec::new();
    let mut answer_hash = vec![0u64; n];
    let mut last_done = Instant::now();
    let start = Instant::now() + Duration::from_millis(2);
    tracer.span(name, None, |phase| {
        std::thread::scope(|s| {
            if tracer.enabled() {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        // The admission gauge can read below zero, wrapped
                        // to a huge count, for the instant between a
                        // receive's decrement and the matching send's
                        // increment; such readings are not depths.
                        let depth = server.stats().queue_depth;
                        if depth <= QUEUE_CAPACITY {
                            depth_max.fetch_max(depth, Ordering::Relaxed);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            }
            // Stops the sampler however this scope ends, so a panic below
            // is not turned into a hang by the scope waiting on it.
            let _stop = StopOnDrop(&stop);
            let mut senders = Vec::with_capacity(COLLECTORS);
            let mut collectors = Vec::with_capacity(COLLECTORS);
            for _ in 0..COLLECTORS {
                let (tx, rx) = mpsc::channel::<(usize, ResponseHandle, Instant)>();
                senders.push(tx);
                collectors.push(s.spawn(move || {
                    rx.into_iter()
                        .map(|(i, handle, due)| {
                            let r = handle.wait();
                            let done = Instant::now();
                            let (end, h) = check(r, &draws[i], refs);
                            (i, end, (done - due).as_secs_f64() * 1e3, done, h)
                        })
                        .collect::<Vec<_>>()
                }));
            }
            for (i, (&at, d)) in schedule.iter().zip(draws).enumerate() {
                let due = start + Duration::from_secs_f64(at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                late_s[i] = (sent - due).as_secs_f64();
                let req = Request::new(
                    MODELS[d.model],
                    KERNELS[d.kernel],
                    pool.image(d.image).clone(),
                );
                let (r, submit_s) =
                    timed(|| tracer.span("axserve.submit", phase, |_| server.submit(req)));
                if tracer.enabled() {
                    submit_us.push(submit_s * 1e6);
                }
                match r {
                    Ok(handle) => senders[i % COLLECTORS]
                        .send((i, handle, due))
                        .expect("collector alive"),
                    Err(e) => ends[i] = check(Err(e), d, refs).0,
                }
            }
            drop(senders);
            for c in collectors {
                for (i, end, ms, done, h) in c.join().expect("collector panicked") {
                    ends[i] = end;
                    answer_hash[i] = h;
                    if end == End::Answered {
                        latency_ms[i] = ms;
                    }
                    last_done = last_done.max(done);
                }
            }
        });
    });
    let mut h = Fnv::default();
    answer_hash.iter().for_each(|&x| h.u64(x));
    Phase {
        latency_ms,
        late_s,
        ends,
        span_s: last_done.saturating_duration_since(start).as_secs_f64(),
        submit_us,
        queue_depth_max: depth_max.load(Ordering::Relaxed),
        hash: h.finish(),
    }
}

/// Whether a ladder step met the p99 limit with no growing backlog and
/// no failed request.
fn meets_limit(p: &Phase) -> bool {
    Latency::of(&p.latency_ms)
        .p99
        .is_some_and(|p99| p99 <= LIMIT_P99_MS)
        && !backlog_grows(&p.latency_ms)
        && p.failed() == 0
}

/// Median over rounds of each round's p50 and p99 latency, in ms.
fn round_medians(rounds: &[Phase]) -> (f64, f64, usize) {
    let lats: Vec<Latency> = rounds.iter().map(|p| Latency::of(&p.latency_ms)).collect();
    let p50: Vec<f64> = lats.iter().map(|l| l.p50).collect();
    let p99: Vec<f64> = lats
        .iter()
        .map(|l| l.p99.unwrap_or(f64::INFINITY))
        .collect();
    (median(&p50), median(&p99), lats.iter().map(|l| l.n).sum())
}

/// Runs `serve-mixed`.
pub fn run_workload(ctx: &Ctx<'_>) -> Outcome {
    let mut out = Outcome::default();
    let ((s, server), setup_walls, setup_cpus) = repeated_setup(ctx, |p| setup(ctx, p));
    push_setup(&mut out, &setup_walls, &setup_cpus);
    let refs = reference(&s, ctx.tracer);
    let t = ctx.tracer;
    let off = Tracer::new(false, 0);
    // Stream `k` of the run seed gives one phase's draws (stream `2k`)
    // and its schedule (stream `2k + 1`), so every phase is reproducible.
    let phase = |k: u64, rate: f64, n: usize, tracer: &Tracer, span: &'static str| {
        let d = draws(ctx.derive(2 * k), n, MODELS.len(), KERNELS.len(), POOL);
        let sched = if rate.is_finite() {
            poisson_schedule(ctx.derive(2 * k + 1), rate, n)
        } else {
            vec![0.0; n]
        };
        run_phase(&server, &s.pool, &refs, &d, &sched, tracer, span)
    };

    // Warm-up: scratch buffers and plans fill before anything is timed.
    phase(10, RATE_HIGH, 200, &off, "warmup");

    let cpu0 = CpuTimes::now();
    let start = Instant::now();
    // Cycles of a capacity burst (every request due at once), a low
    // round and a high round, so that drift in the host hits all three
    // alike and each median spans the whole window. The burst leads, so
    // the low round's idle gaps separate it from the high round.
    let mut low = Vec::new();
    let mut high = Vec::new();
    let mut bursts = Vec::new();
    let mut cycle = 0;
    while cycle < MIN_CYCLES || start.elapsed().as_secs_f64() < ctx.seconds {
        bursts.push(phase(
            100 + 3 * cycle,
            f64::INFINITY,
            N_BURST,
            t,
            "loadgen.burst",
        ));
        low.push(phase(101 + 3 * cycle, RATE_LOW, N_ROUND, t, "loadgen.low"));
        high.push(phase(
            102 + 3 * cycle,
            RATE_HIGH,
            N_ROUND,
            t,
            "loadgen.high",
        ));
        cycle += 1;
    }
    // The ladder: climb from the high rate until a step misses the p99
    // limit or shows a growing backlog.
    let mut ladder = Vec::new();
    let mut rate = RATE_HIGH;
    for step in 0..LADDER_STEPS {
        let p = phase(20 + step, rate, N_ROUND, t, "loadgen.ladder");
        let ok = meets_limit(&p);
        ladder.push(p);
        if !ok {
            break;
        }
        rate *= LADDER_GROWTH;
    }
    // A traced run ends with untraced high rounds on the schedules of
    // its first traced ones, so the tracing overhead compares the same
    // requests with and without spans.
    let untraced_high: Vec<Phase> = if ctx.traced() {
        (0..MIN_CYCLES)
            .map(|c| phase(102 + 3 * c, RATE_HIGH, N_ROUND, &off, ""))
            .collect()
    } else {
        Vec::new()
    };
    let cpu = CpuTimes::now().since(cpu0);
    let stats = server.stats();
    drop(server);

    let all: Vec<&Phase> = low
        .iter()
        .chain(&high)
        .chain(&bursts)
        .chain(&ladder)
        .chain(&untraced_high)
        .collect();
    let attempted: usize = all.iter().map(|p| p.ends.len()).sum();
    let failed: usize = all.iter().map(|p| p.failed()).sum();
    let wrong: usize = all
        .iter()
        .map(|p| p.ends.iter().filter(|&&e| e == End::Wrong).count())
        .sum();
    out.attempted = attempted as u64;
    out.failed = failed as u64;
    out.check(wrong == 0, || {
        format!("serve-mixed: {wrong} answers differ from the offline QPlan logits")
    });
    // The first cycles send the same requests in the same order on every
    // run of a seed (the ensemble draws by arrival order), so their
    // answers hash the same; later rounds depend on timing.
    let mut h = Fnv::default();
    for c in 0..MIN_CYCLES as usize {
        h.u64(bursts[c].hash);
        h.u64(low[c].hash);
        h.u64(high[c].hash);
    }
    out.result_hash = h.finish();
    out.push(
        "failed_share",
        failed as f64 / attempted as f64,
        "ratio",
        attempted,
    );

    for (name, rounds) in [("low", &low), ("high", &high)] {
        let (p50, p99, n) = round_medians(rounds);
        out.push(format!("serve.{name}.p50_ms"), p50, "ms", n);
        out.push(format!("serve.{name}.p99_ms"), p99, "ms", n);
        out.push(
            format!("serve.{name}.rounds"),
            rounds.len() as f64,
            "count",
            rounds.len(),
        );
    }
    let burst_rps: Vec<f64> = bursts
        .iter()
        .map(|p| p.ends.len() as f64 / p.span_s)
        .collect();
    out.push("serve.burst_rps", median(&burst_rps), "1/s", bursts.len());
    // The highest ladder step that met the limit; its achieved rate
    // (answers over the step's wall time) is the reported rate, 0 when
    // even the first step missed it.
    let passed: Vec<&Phase> = ladder.iter().filter(|p| meets_limit(p)).collect();
    let max_rps = passed
        .last()
        .map_or(0.0, |p| p.ends.len() as f64 / p.span_s);
    out.push("serve.max_rps", max_rps, "1/s", passed.len());
    out.push("work_per_s", median(&burst_rps), "1/s", bursts.len());
    // The gated latency is a burst's median answer time: the wait of a
    // user arriving with a burst, set by capacity and batching. The
    // fixed-rate latencies above include the host's wake-up latency of
    // idle cores, which moved their medians threefold between runs of the
    // same code on a shared 2-core VM, so they are reported, not gated.
    let burst_p50: Vec<f64> = bursts
        .iter()
        .map(|p| Latency::of(&p.latency_ms).p50)
        .collect();
    out.push("serve.burst.p50_ms", median(&burst_p50), "ms", bursts.len());
    out.push("latency_ms", median(&burst_p50), "ms", bursts.len());
    push_cpu(&mut out, "run", &[cpu]);

    if ctx.traced() {
        let late: Vec<f64> = all.iter().flat_map(|p| p.late_s.iter().copied()).collect();
        let l = Lateness::of(&late);
        out.push("loadgen.sent", attempted as f64, "count", attempted);
        out.push("loadgen.late_p99_ms", l.p99_ms, "ms", late.len());
        out.push("loadgen.late_max_ms", l.max_ms, "ms", late.len());
        let sub = sorted(
            &all.iter()
                .flat_map(|p| p.submit_us.iter().copied())
                .collect::<Vec<_>>(),
        );
        out.push(
            "axserve.submit_us.p50",
            percentile(&sub, 0.5),
            "us",
            sub.len(),
        );
        out.push(
            "axserve.submit_us.p99",
            percentile(&sub, 0.99),
            "us",
            sub.len(),
        );
        out.push("axserve.batches", stats.batches as f64, "count", 1);
        out.push(
            "axserve.mean_batch",
            stats.mean_batch_size(),
            "count",
            stats.batches as usize,
        );
        for k in ANSWERING {
            let kb = stats.per_kernel.iter().find(|b| b.kernel == k);
            let mean = kb.map_or(0.0, |b| b.requests as f64 / b.batches.max(1) as f64);
            out.push(
                format!("axserve.mean_batch.{k}"),
                mean,
                "count",
                kb.map_or(0, |b| b.batches as usize),
            );
        }
        out.push(
            "axserve.shed_overload",
            stats.shed_overload as f64,
            "count",
            1,
        );
        out.push(
            "axserve.shed_deadline",
            stats.shed_deadline as f64,
            "count",
            1,
        );
        out.push(
            "axserve.queue_depth_max",
            all.iter().map(|p| p.queue_depth_max).max().unwrap_or(0) as f64,
            "count",
            1,
        );
        let traced_p50: Vec<f64> = high[..MIN_CYCLES as usize]
            .iter()
            .map(|p| median(&p.latency_ms))
            .collect();
        let untraced_p50: Vec<f64> = untraced_high
            .iter()
            .map(|p| median(&p.latency_ms))
            .collect();
        out.push(
            "trace.overhead_s",
            (median(&traced_p50) - median(&untraced_p50)) * 1e-3,
            "s",
            untraced_high.len(),
        );
        // The reference pass runs every model over the same pool under
        // every answering kernel, so the work per model is its forward
        // work times the pool size times the kernel count.
        let predict = t.total_s("axquant.qplan.predict");
        let per_model = (POOL * ANSWERING.len()) as f64;
        let (macs, bytes) = s
            .floats
            .iter()
            .map(|f| forward_work(f, s.pool.image(0).dims()))
            .fold((0.0, 0.0), |(m, b), (fm, fb)| {
                (m + fm * per_model, b + fb * per_model)
            });
        let compiles = t.durations_s("axquant.qplan.compile");
        out.push(
            "axquant.qplan.compile_ms",
            median(&compiles) * 1e3,
            "ms",
            compiles.len(),
        );
        out.push("axquant.qplan.predict_s", predict, "s", 1);
        out.push(
            "axquant.qplan.forwards",
            t.counter("axquant.qplan.forwards"),
            "count",
            1,
        );
        out.push("axquant.qplan.macs", macs, "count", 1);
        out.push("axquant.qplan.bytes", bytes, "B", 1);
        out.push(
            "axquant.qplan.gmac_per_s",
            macs / predict / 1e9,
            "GMAC/s",
            1,
        );
        push_setup_layers(&mut out, ctx);
        let luts = t.durations_s("axmul.lut_build");
        out.push("axmul.lut_build_ms", median(&luts) * 1e3, "ms", luts.len());
    }
    out
}
