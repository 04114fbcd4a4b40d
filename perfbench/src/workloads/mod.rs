//! The named workloads and what they share: seeding, repeated set-up,
//! the measurement loop, outside-in probes of the float plan and the
//! computed work of a quantized forward pass.

pub mod heatmap;
pub mod serve;
pub mod train;

use std::hint::black_box;
use std::time::Instant;

use axdata::Dataset;
use axnn::{Layer, Sequential};
use axtensor::Tensor;
use axutil::rng::Rng;

use crate::procstat::CpuTimes;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

/// Set-up runs at least this often in one process; `setup_s` is the
/// median.
const SETUP_MIN_REPEATS: usize = 3;
/// A cheap set-up repeats until this many seconds have passed (up to
/// [`SETUP_MAX_REPEATS`]), so its median rests on enough samples.
const SETUP_MIN_SECONDS: f64 = 2.0;
/// Upper limit on set-up repeats.
const SETUP_MAX_REPEATS: usize = 20;

/// Batch size of the outside-in plan probes (the training batch size).
pub const PROBE_BATCH: usize = 32;

/// Repetitions of each probe; the median is reported.
const PROBE_REPS: usize = 7;

/// What a workload run gets from the command line.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Input seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Span recorder, enabled for `--trace 1`.
    pub tracer: &'a Tracer,
}

impl Ctx<'_> {
    /// A seed for the input stream `stream`, derived from the run seed.
    pub fn derive(&self, stream: u64) -> u64 {
        derive_seed(self.seed, stream)
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// A seed for input stream `stream` of run seed `seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    Rng::seed_from_u64(seed).derive(stream).next_u64()
}

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs `setup` at least [`SETUP_MIN_REPEATS`] times, and more while a
/// cheap set-up has not yet filled [`SETUP_MIN_SECONDS`], each inside a
/// `perfbench.setup` span. Returns the last result with the wall and CPU
/// time of each repeat. Repeating makes `setup_s` a median, so that work
/// moved into set-up shows and one slow repeat does not.
pub fn repeated_setup<T>(
    ctx: &Ctx<'_>,
    mut setup: impl FnMut(Option<usize>) -> T,
) -> (T, Vec<f64>, Vec<CpuTimes>) {
    let start = Instant::now();
    let mut last = None;
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    while walls.len() < SETUP_MIN_REPEATS
        || (walls.len() < SETUP_MAX_REPEATS && start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        drop(last.take());
        let cpu0 = CpuTimes::now();
        let (value, wall) = timed(|| ctx.tracer.span("perfbench.setup", None, &mut setup));
        cpus.push(CpuTimes::now().since(cpu0));
        walls.push(wall);
        last = Some(value);
    }
    (last.expect("at least one set-up"), walls, cpus)
}

/// Records the set-up metrics every workload reports.
pub fn push_setup(out: &mut Outcome, walls: &[f64], cpus: &[CpuTimes]) {
    out.push("setup_s", median(walls), "s", walls.len());
    push_cpu(out, "setup", cpus);
}

/// Records the median user and system CPU time of a phase.
pub fn push_cpu(out: &mut Outcome, phase: &str, cpus: &[CpuTimes]) {
    let user: Vec<f64> = cpus.iter().map(|c| c.user_s).collect();
    let sys: Vec<f64> = cpus.iter().map(|c| c.sys_s).collect();
    out.push(
        format!("process.{phase}.user_s"),
        median(&user),
        "s",
        cpus.len(),
    );
    out.push(
        format!("process.{phase}.sys_s"),
        median(&sys),
        "s",
        cpus.len(),
    );
}

/// The set-up layer metrics every workload shares: data generation,
/// training, quantization, as medians over the set-up repeats.
pub fn push_setup_layers(out: &mut Outcome, ctx: &Ctx<'_>) {
    let t = ctx.tracer;
    for (span, metric) in [
        ("axdata.generate", "axdata.generate_ms"),
        ("axquant.quantize", "axquant.quantize_ms"),
    ] {
        let d = t.durations_s(span);
        out.push(
            metric,
            if d.is_empty() { 0.0 } else { median(&d) * 1e3 },
            "ms",
            d.len(),
        );
    }
    let fits = t.durations_s("axnn.fit");
    let fit_s = if fits.is_empty() { 0.0 } else { median(&fits) };
    out.push("axnn.fit_s", fit_s, "s", fits.len());
    out.push(
        "axnn.fit_images",
        t.counter("axnn.fit_images") / fits.len().max(1) as f64,
        "count",
        fits.len(),
    );
}

/// Calls `f` until `seconds` have passed and at least `min_iters` calls
/// are done; returns each call's result, wall time and CPU time.
pub fn measure<T>(
    seconds: f64,
    min_iters: usize,
    mut f: impl FnMut(usize) -> T,
) -> Vec<(T, f64, CpuTimes)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_iters || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = CpuTimes::now();
        let (v, wall) = timed(|| f(out.len()));
        out.push((v, wall, CpuTimes::now().since(cpu0)));
    }
    out
}

/// Median milliseconds of the float plan's batched parameter gradient
/// and input gradient over the first [`PROBE_BATCH`] images of `data`,
/// timed from outside through the public `FPlan` calls.
pub fn fplan_probe_ms(model: &Sequential, data: &Dataset) -> (f64, f64) {
    let n = PROBE_BATCH.min(data.len());
    let plan = model.plan(data.image(0).dims());
    let param = probe_ms(|| {
        black_box(plan.loss_and_param_grads_batch(n, |k| data.image(k), |k| data.label(k)));
    });
    let input = probe_ms(|| {
        black_box(plan.input_gradient_batch_indexed(n, |k| data.image(k), |k| data.label(k)));
    });
    (param, input)
}

/// Median milliseconds of `f` over [`PROBE_REPS`] calls after one
/// warm-up call.
pub fn probe_ms(mut f: impl FnMut()) -> f64 {
    f();
    let ms: Vec<f64> = (0..PROBE_REPS).map(|_| timed(&mut f).1 * 1e3).collect();
    median(&ms)
}

/// Computed work of one quantized forward pass of `model` on an input
/// of `dims`: multiply-accumulates, and bytes moved counting one byte
/// per 8-bit weight and per im2col input element and four per 32-bit
/// output accumulator. Shapes come from a float forward of a zero
/// input, layer by layer; the counts are derived, not measured.
pub fn forward_work(model: &Sequential, dims: &[usize]) -> (f64, f64) {
    let mut x = Tensor::zeros(dims);
    let (mut macs, mut bytes) = (0.0, 0.0);
    for layer in model.layers() {
        let y = layer.forward(&x);
        let outputs = y.len() as f64;
        let (m, b) = match layer {
            Layer::Conv2d(c) => {
                let w = c.weight().dims();
                let patch = (w[1] * w[2] * w[3]) as f64;
                let positions = outputs / w[0] as f64;
                (
                    outputs * patch,
                    c.weight().len() as f64 + positions * patch + 4.0 * outputs,
                )
            }
            Layer::Dense(d) => {
                let w = d.weight().len() as f64;
                (w, w + x.len() as f64 + 4.0 * outputs)
            }
            _ => (0.0, 0.0),
        };
        macs += m;
        bytes += b;
        x = y;
    }
    (macs, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axdata::mnist::{MnistConfig, SynthMnist};

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(5, 1), derive_seed(5, 1));
        assert_ne!(derive_seed(5, 1), derive_seed(5, 2));
        assert_ne!(derive_seed(5, 1), derive_seed(6, 1));
    }

    #[test]
    fn generated_inputs_follow_the_seed() {
        let gen = |seed: u64| {
            SynthMnist::generate(&MnistConfig {
                n: 8,
                seed: derive_seed(seed, 1),
                ..Default::default()
            })
        };
        let (a, b, c) = (gen(3), gen(3), gen(4));
        let bits = |d: &Dataset| -> Vec<u32> {
            (0..d.len())
                .flat_map(|i| d.image(i).data().iter().map(|x| x.to_bits()))
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
    }

    #[test]
    fn ffnn_forward_work_matches_its_shapes() {
        let model = axnn::zoo::ffnn(&mut Rng::seed_from_u64(1));
        let (macs, _) = forward_work(&model, &[1, 28, 28]);
        assert_eq!(macs, (784 * 300 + 300 * 100 + 100 * 10) as f64);
    }

    #[test]
    fn lenet_first_conv_work() {
        // conv1: 6 maps of 24x24, each output a 1x5x5 patch.
        let model = axnn::zoo::lenet5(&mut Rng::seed_from_u64(1));
        let (macs, _) = forward_work(&model, &[1, 28, 28]);
        let conv1 = (6 * 24 * 24 * 25) as f64;
        let conv2 = (16 * 8 * 8 * 6 * 25) as f64;
        let conv3 = (120 * 16 * 16) as f64;
        let dense = (120 * 84 + 84 * 10) as f64;
        assert_eq!(macs, conv1 + conv2 + conv3 + dense);
    }
}
