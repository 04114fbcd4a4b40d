//! The scalar-vs-batched performance trajectory: attack crafting and the
//! training step.
//!
//! Part 1 crafts a small adversarial set on a LeNet-5-sized model both
//! ways — per-image [`axattack::Attack::craft`] calls and one
//! [`axattack::Attack::craft_batch`] pass — on one thread so the
//! comparison isolates the batching win (plan/scratch/tape reuse) from
//! thread scaling, then re-times the batched path under the caller's
//! execution context (`AXDNN_THREADS`, else every core). Part 2 runs
//! the same comparison for the training gradient: the seed per-image `Sequential::loss_and_grads` fold vs one
//! `FPlan::loss_and_param_grads_batch` pass (bit-identical sums, pinned
//! by `axnn/tests/prop_train`). Writes `BENCH_attacks.json` and
//! `BENCH_train.json` into the current directory (the repo root in CI)
//! and human-readable copies into the artifacts directory.
//!
//! Part 3 is the approximation-aware fine-tuning smoke: LeNet-5 is
//! trained briefly, quantized with one approximate LUT multiplier, and
//! fine-tuned through that approximate forward
//! ([`axquant::qtrain::finetune`]); the report records clean quantized
//! accuracy before vs. after retraining plus the scalar-vs-batched
//! timing of the STE gradient step. Writes `BENCH_finetune.json`.
//!
//! Part 4 is the stuck-at fault campaign smoke: the quickstart FFNN
//! config is swept through [`axrobust::experiments::run_fault_sweep`]
//! over three registry multipliers, and the LUT-rebuild throughput
//! (faulted netlist → 64Ki table) is timed against a floor. The JSON
//! carries only deterministic fields plus the boolean floor verdict —
//! measured throughput goes to stderr — so `BENCH_faults.json` is
//! byte-identical across runs and thread counts. Writes
//! `BENCH_faults.json`.
//!
//! Part 5 is the raw GEMM kernel-tier comparison: the scalar reference
//! loops of [`axnn::exec`] against the register-tiled micro-kernels
//! ([`axnn::exec::FloatKernel::Tiled`]) on the exact hot shapes of the
//! zoo models (LeNet-5's two big conv GEMMs, the FFNN's first dense
//! layer). Both tiers are asserted bit-identical before timing. Writes
//! `BENCH_gemm.json`.
//!
//! Part 6 is the universal-robustness smoke: one universal delta is
//! crafted on the quickstart FFNN's float surrogate and
//! [`axrobust::experiments::run_universal_sweep`] measures clean vs
//! delta-perturbed accuracy for three registry multipliers, before and
//! after universal adversarial training. Like part 4 the pipeline is
//! deterministic and thread-invariant, so `BENCH_universal.json`
//! carries only replayable fields plus the boolean
//! hardening-beats-PTQ-under-the-delta verdict; craft and sweep wall
//! times go to stderr. Writes `BENCH_universal.json`.
//!
//! Part 7 is the moving-target defense smoke: the quickstart FFNN is
//! scored through [`axrobust::experiments::run_mtd_sweep`] — every fixed
//! registry multiplier plus the randomized per-query kernel ensemble,
//! each against a static PGD attacker and the adaptive EOT attacker that
//! averages gradients over the disclosed kernel distribution. The whole
//! sweep is deterministic and thread-invariant, so `BENCH_mtd.json`
//! carries only replayable fields plus the boolean honesty verdict (the
//! adaptive attacker is never *weaker* than the static one against the
//! ensemble); wall time goes to stderr. Writes `BENCH_mtd.json`.
//!
//! Every `BENCH_*.json` this binary writes is validated by the
//! `bench_check` regression gate in CI.
//!
//! Environment: `AXDNN_BENCH_IMAGES` (default 8) and `AXDNN_BENCH_REPS`
//! (default 3) size the workload; `AXDNN_BENCH_FT_TRAIN` (default 400)
//! sizes the fine-tuning training set; `AXDNN_BENCH_FAULT_EVAL`
//! (default 60) and `AXDNN_BENCH_FAULTS` (default 6) size the fault
//! campaign; `AXDNN_BENCH_MIN_LUT_REBUILD` (default 5.0 rebuilds/s)
//! sets the LUT-rebuild throughput floor; `AXDNN_BENCH_GEMM_ITERS`
//! (default 200) sets the inner repetitions of each timed GEMM call;
//! `AXDNN_BENCH_UNIVERSAL_EVAL` (default 60) and
//! `AXDNN_BENCH_UNIVERSAL_CRAFT` (default 80) size the universal
//! sweep's evaluation and crafting samples; `AXDNN_BENCH_MTD_EVAL`
//! (default 60) sizes the moving-target evaluation sample.

use std::time::Instant;

use axattack::gradient::{Bim, Fgm, Pgd};
use axattack::norms::Norm;
use axattack::Attack;
use axdata::mnist::{MnistConfig, SynthMnist};
use axmul::Registry;
use axnn::train::{fit, TrainConfig};
use axnn::zoo;
use axnn::Sequential;
use axquant::qtrain::{finetune, FinetuneConfig, QTrainPlan};
use axquant::{Placement, QuantModel};
use axrobust::experiments::{run_fault_sweep, run_mtd_sweep, run_universal_sweep};
use axrobust::faults::{sample_single_faults, FaultSweepOpts};
use axrobust::{MtdSweepOpts, UniversalSweepOpts};
use axtensor::Tensor;
use axutil::exec::{self, Context};
use axutil::rng::Rng;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|v: &f64| v.is_finite() && *v > 0.0)
        .unwrap_or(default)
}

/// Wall-clock time of one call of `f`, in milliseconds.
fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of `times`.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Median of `reps` wall-clock timings of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    median((0..reps).map(|_| time_ms(&mut f)).collect())
}

/// Medians of `reps` wall-clock timings of `f` in milliseconds, once
/// under the current execution context and once under `parallel`. The
/// two alternate rep by rep, so host noise lands on both columns alike:
/// `bench_check` compares them.
fn median_ms_serial_parallel(reps: usize, parallel: Context, mut f: impl FnMut()) -> (f64, f64) {
    let (mut serial, mut par) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        serial.push(time_ms(&mut f));
        par.push(exec::with(parallel, || time_ms(&mut f)));
    }
    (median(serial), median(par))
}

struct Row {
    attack: String,
    scalar_ms: f64,
    batched_ms: f64,
    batched_par_ms: f64,
}

fn main() {
    let n_images = env_usize("AXDNN_BENCH_IMAGES", 8);
    let reps = env_usize("AXDNN_BENCH_REPS", 3);
    // Parts 1-3 pin their scalar-vs-batched comparisons to one thread;
    // their parallel columns, and parts 4-7, run under the caller's
    // context so thread invariance stays observable end to end.
    let caller = exec::current();
    exec::with(caller.with_threads(1), || {
        let (images, labels) = attacks_report(n_images, reps, caller);
        train_report(&images, &labels, n_images, reps, caller);
        finetune_report(reps, caller);
    });
    gemm_report(reps);
    faults_report(reps);
    universal_report();
    mtd_report();
}

/// Part 1: attack crafting, scalar vs batched, on a LeNet-5-sized model.
/// Returns the probe images and labels, which part 2 reuses. Writes
/// `BENCH_attacks.json`.
fn attacks_report(n_images: usize, reps: usize, caller: Context) -> (Vec<Tensor>, Vec<usize>) {
    let model = zoo::lenet5(&mut Rng::seed_from_u64(1));
    let mut rng = Rng::seed_from_u64(2);
    let images: Vec<Tensor> = (0..n_images)
        .map(|_| {
            let mut t = Tensor::zeros(&[1, 28, 28]);
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t
        })
        .collect();
    let labels: Vec<usize> = (0..n_images).map(|i| i % 10).collect();
    let base = Rng::seed_from_u64(3);
    let eps = 0.1f32;

    let attacks: Vec<Box<dyn Attack>> = vec![
        Box::new(Fgm::new(Norm::Linf)),
        Box::new(Bim::new(Norm::Linf)),
        Box::new(Pgd::new(Norm::Linf)),
        Box::new(Pgd::new(Norm::L2)),
    ];

    let mut rows = Vec::new();
    for attack in &attacks {
        // Warm-up + correctness check: both paths must agree bit-for-bit.
        let batch = attack.craft_batch(&model, &images, &labels, eps, &base);
        for (i, (img, &lbl)) in images.iter().zip(&labels).enumerate() {
            let scalar = attack.craft(&model, img, lbl, eps, &mut base.derive(i as u64));
            assert_eq!(batch[i], scalar, "{} image {i} diverged", attack.name());
        }

        let scalar_ms = median_ms(reps, || {
            for (i, (img, &lbl)) in images.iter().zip(&labels).enumerate() {
                std::hint::black_box(attack.craft(
                    &model,
                    img,
                    lbl,
                    eps,
                    &mut base.derive(i as u64),
                ));
            }
        });
        let batched = || {
            std::hint::black_box(attack.craft_batch(&model, &images, &labels, eps, &base));
        };
        let batched_ms = median_ms(reps, batched);
        let batched_par_ms = exec::with(caller, || median_ms(reps, batched));
        rows.push(Row {
            attack: attack.name(),
            scalar_ms,
            batched_ms,
            batched_par_ms,
        });
    }

    let threads = caller.threads;
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"attack_crafting\",\n");
    json.push_str("  \"model\": \"lenet5-1x28\",\n");
    json.push_str(&format!("  \"images\": {n_images},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"eps\": 0.1,\n");
    json.push_str(&format!("  \"parallel_threads\": {threads},\n"));
    json.push_str("  \"units\": \"ms_per_set_median\",\n");
    json.push_str("  \"results\": [\n");
    let mut text = format!(
        "# Attack crafting: scalar vs batched ({n_images} images, LeNet-5)\n\n\
         | attack | scalar ms | batched ms (1 thread) | speedup | batched ms ({threads} threads) |\n\
         |---|---|---|---|---|\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.scalar_ms / r.batched_ms;
        json.push_str(&format!(
            "    {{\"attack\": \"{}\", \"scalar_ms\": {:.3}, \"batched_ms\": {:.3}, \"speedup\": {:.3}, \"batched_parallel_ms\": {:.3}}}{}\n",
            r.attack,
            r.scalar_ms,
            r.batched_ms,
            speedup,
            r.batched_par_ms,
            if i + 1 < rows.len() { "," } else { "" },
        ));
        text.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.2}x | {:.2} |\n",
            r.attack, r.scalar_ms, r.batched_ms, speedup, r.batched_par_ms
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_attacks.json", &json).expect("write BENCH_attacks.json");
    eprintln!("[saved BENCH_attacks.json]");
    bench::emit("bench_attacks", &text);

    let slow = rows
        .iter()
        .filter(|r| r.attack.starts_with("BIM") || r.attack.starts_with("PGD"))
        .filter(|r| r.batched_ms >= r.scalar_ms)
        .map(|r| r.attack.clone())
        .collect::<Vec<_>>();
    if !slow.is_empty() {
        eprintln!("warning: batched crafting not faster for {slow:?}");
    }
    (images, labels)
}

/// One GEMM workload of part 5: a conv im2col product or a dense matvec
/// on a zoo-model shape.
enum GemmWork {
    /// `out[o * rows + p] = bias[o] + w[o] · patch[p]`.
    Conv { oc: usize, rows: usize, cols: usize },
    /// `out = W x + b`.
    Dense { out_dim: usize, in_dim: usize },
}

impl GemmWork {
    fn macs(&self) -> usize {
        match *self {
            GemmWork::Conv { oc, rows, cols } => oc * rows * cols,
            GemmWork::Dense { out_dim, in_dim } => out_dim * in_dim,
        }
    }
}

/// Part 5: the raw kernel tiers — [`axnn::exec`]'s scalar reference
/// loops vs the register-tiled micro-kernels — on the hot GEMM shapes of
/// the zoo models: LeNet-5's conv1 (6×576×25) and conv2 (16×64×150)
/// im2col products and the FFNN's first dense layer (300×784). The tiled
/// tier preserves every per-element accumulation chain, so both outputs
/// are asserted **bit-identical** before anything is timed. Each timed
/// call repeats the kernel `AXDNN_BENCH_GEMM_ITERS` times (default 200)
/// so per-call microseconds accumulate into stable milliseconds; the
/// JSON carries ms and speedup like the other speedup reports, and the
/// (jittery) MAC throughput goes to stderr only. Writes
/// `BENCH_gemm.json`.
fn gemm_report(reps: usize) {
    use axnn::exec;

    let iters = env_usize("AXDNN_BENCH_GEMM_ITERS", 200);
    let mut rng = Rng::seed_from_u64(60);
    let mut fill = |n: usize| {
        let mut v = vec![0.0f32; n];
        rng.fill_range_f32(&mut v, -1.0, 1.0);
        v
    };

    let shapes = [
        (
            "lenet5-conv1-6x576x25",
            GemmWork::Conv {
                oc: 6,
                rows: 576,
                cols: 25,
            },
        ),
        (
            "lenet5-conv2-16x64x150",
            GemmWork::Conv {
                oc: 16,
                rows: 64,
                cols: 150,
            },
        ),
        (
            "ffnn-dense1-300x784",
            GemmWork::Dense {
                out_dim: 300,
                in_dim: 784,
            },
        ),
    ];

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"gemm_kernels\",\n");
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str("  \"units\": \"ms_per_iters_median\",\n");
    json.push_str("  \"results\": [\n");
    let mut text = format!(
        "# GEMM kernel tiers: scalar reference vs register-tiled ({iters} calls per timing)\n\n\
         | workload | reference ms | tiled ms | speedup |\n|---|---|---|---|\n"
    );
    for (i, (name, work)) in shapes.iter().enumerate() {
        let (reference_ms, tiled_ms) = match *work {
            GemmWork::Conv { oc, rows, cols } => {
                let w = fill(oc * cols);
                let bias = fill(oc);
                let patch = fill(rows * cols);
                let mut want = vec![0.0f32; oc * rows];
                let mut got = vec![0.0f32; oc * rows];
                exec::conv_forward(&w, &bias, &patch, rows, cols, &mut want);
                exec::conv_forward_tiled(&w, &bias, &patch, rows, cols, &mut got);
                assert_eq!(want, got, "{name}: tiled conv diverged from reference");
                (
                    median_ms(reps, || {
                        for _ in 0..iters {
                            exec::conv_forward(&w, &bias, &patch, rows, cols, &mut want);
                        }
                        std::hint::black_box(&mut want);
                    }),
                    median_ms(reps, || {
                        for _ in 0..iters {
                            exec::conv_forward_tiled(&w, &bias, &patch, rows, cols, &mut got);
                        }
                        std::hint::black_box(&mut got);
                    }),
                )
            }
            GemmWork::Dense { out_dim, in_dim } => {
                let w = fill(out_dim * in_dim);
                let bias = fill(out_dim);
                let x = fill(in_dim);
                let mut want = vec![0.0f32; out_dim];
                let mut got = vec![0.0f32; out_dim];
                exec::dense_forward(&w, &bias, &x, &mut want);
                exec::dense_forward_tiled(&w, &bias, &x, &mut got);
                assert_eq!(want, got, "{name}: tiled dense diverged from reference");
                (
                    median_ms(reps, || {
                        for _ in 0..iters {
                            exec::dense_forward(&w, &bias, &x, &mut want);
                        }
                        std::hint::black_box(&mut want);
                    }),
                    median_ms(reps, || {
                        for _ in 0..iters {
                            exec::dense_forward_tiled(&w, &bias, &x, &mut got);
                        }
                        std::hint::black_box(&mut got);
                    }),
                )
            }
        };
        let speedup = reference_ms / tiled_ms;
        let gmacs = |ms: f64| (work.macs() * iters) as f64 / (ms / 1e3) / 1e9;
        eprintln!(
            "[gemm {name}: reference {:.2} GMAC/s, tiled {:.2} GMAC/s, {speedup:.2}x]",
            gmacs(reference_ms),
            gmacs(tiled_ms)
        );
        json.push_str(&format!(
            "    {{\"workload\": \"{name}\", \"reference_ms\": {reference_ms:.3}, \"tiled_ms\": {tiled_ms:.3}, \"speedup\": {speedup:.3}}}{}\n",
            if i + 1 < shapes.len() { "," } else { "" },
        ));
        text.push_str(&format!(
            "| {name} | {reference_ms:.2} | {tiled_ms:.2} | {speedup:.2}x |\n"
        ));
        if tiled_ms >= reference_ms {
            eprintln!("warning: tiled GEMM not faster for {name}");
        }
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_gemm.json", &json).expect("write BENCH_gemm.json");
    eprintln!("[saved BENCH_gemm.json]");
    bench::emit("bench_gemm", &text);
}

/// Part 2: one training gradient step, scalar vs batched, on the same
/// LeNet-5-sized workload. Scalar is the seed shape (one
/// `Sequential::loss_and_grads` per image — plan compiled per call —
/// folded in image order); batched is one
/// `Sequential::loss_and_param_grads_batch` pass. Writes
/// `BENCH_train.json`.
fn train_report(
    images: &[Tensor],
    labels: &[usize],
    n_images: usize,
    reps: usize,
    caller: Context,
) {
    let threads = caller.threads;
    let models = [
        ("ffnn-1x28", zoo::ffnn(&mut Rng::seed_from_u64(7))),
        ("lenet5-1x28", zoo::lenet5(&mut Rng::seed_from_u64(8))),
    ];

    let scalar_step = |model: &Sequential| {
        let mut loss = 0.0f32;
        let mut grads = model.zero_grads();
        for (img, &lbl) in images.iter().zip(labels) {
            let (l, g) = model.loss_and_grads(img, lbl);
            loss += l;
            grads.accumulate(&g);
        }
        (loss, grads)
    };

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"train_step\",\n");
    json.push_str(&format!("  \"images\": {n_images},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"parallel_threads\": {threads},\n"));
    json.push_str("  \"units\": \"ms_per_batch_median\",\n");
    json.push_str("  \"results\": [\n");
    let mut text = format!(
        "# Training gradient step: scalar vs batched ({n_images} images)\n\n\
         | model | scalar ms | batched ms (1 thread) | speedup | batched ms ({threads} threads) |\n\
         |---|---|---|---|---|\n"
    );
    for (m, (name, model)) in models.iter().enumerate() {
        // Warm-up + correctness: both paths must agree bit-for-bit.
        let want = scalar_step(model);
        let got = model.loss_and_param_grads_batch(images, labels);
        assert_eq!(want, got, "{name}: batched gradient diverged from scalar");

        let scalar_ms = median_ms(reps, || {
            std::hint::black_box(scalar_step(model));
        });
        let (batched_ms, batched_par_ms) = median_ms_serial_parallel(reps, caller, || {
            std::hint::black_box(model.loss_and_param_grads_batch(images, labels));
        });

        let speedup = scalar_ms / batched_ms;
        json.push_str(&format!(
            "    {{\"model\": \"{name}\", \"scalar_ms\": {scalar_ms:.3}, \"batched_ms\": {batched_ms:.3}, \"speedup\": {speedup:.3}, \"batched_parallel_ms\": {batched_par_ms:.3}}}{}\n",
            if m + 1 < models.len() { "," } else { "" },
        ));
        text.push_str(&format!(
            "| {name} | {scalar_ms:.2} | {batched_ms:.2} | {speedup:.2}x | {batched_par_ms:.2} |\n"
        ));
        if batched_ms >= scalar_ms {
            eprintln!("warning: batched train step not faster for {name}");
        }
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_train.json", &json).expect("write BENCH_train.json");
    eprintln!("[saved BENCH_train.json]");
    bench::emit("bench_train", &text);
}

/// Part 3: the approximation-aware fine-tuning smoke (LeNet-5, one
/// approximate LUT multiplier). Records clean quantized accuracy for the
/// post-training-quantization baseline vs. after fine-tuning through the
/// approximate forward, and times one STE gradient batch scalar (fresh
/// plan + scratch per image — the shape a naive per-image wrapper pays)
/// vs batched (one compiled plan, chunked scratches). Writes
/// `BENCH_finetune.json`.
fn finetune_report(reps: usize, caller: Context) {
    let threads = caller.threads;
    let n_train = env_usize("AXDNN_BENCH_FT_TRAIN", 400);
    let train = SynthMnist::generate(&MnistConfig {
        n: n_train,
        seed: 41,
        ..Default::default()
    });
    let test = SynthMnist::generate(&MnistConfig {
        n: 200,
        seed: 42,
        ..Default::default()
    });
    let mut model = zoo::lenet5(&mut Rng::seed_from_u64(40));
    fit(
        &mut model,
        &train,
        &TrainConfig {
            epochs: 2,
            lr: 0.1,
            ..Default::default()
        },
    );
    let float_acc = model.accuracy(&test, test.len());

    let kernel_name = "L40";
    let lut = Registry::standard()
        .build_lut(kernel_name)
        .expect("registry kernel");
    let calib: Vec<Tensor> = (0..32).map(|i| train.image(i).clone()).collect();
    let cfg = FinetuneConfig {
        epochs: 2,
        batch_size: 32,
        ..Default::default()
    };
    let qm = QuantModel::from_float_with_level(&model, &calib, cfg.placement, cfg.level)
        .expect("quantize lenet5");
    let ptq_acc = qm.accuracy_with(&test, &lut, test.len());

    // Timing: one STE gradient batch over 8 images, scalar vs batched.
    let images: Vec<Tensor> = (0..8).map(|i| train.image(i).clone()).collect();
    let labels: Vec<usize> = (0..8).map(|i| train.label(i)).collect();
    let in_dims = [1usize, 28, 28];
    let scalar_step = || {
        let mut loss = 0.0f32;
        let mut grads = model.zero_grads();
        for (img, &lbl) in images.iter().zip(&labels) {
            // The naive shape: a fresh plan and scratch per image.
            let plan = QTrainPlan::compile(&qm, &model, &in_dims);
            let mut s = plan.scratch();
            let (l, g) = plan.loss_and_param_grads(&mut s, img, lbl, &lut);
            loss += l;
            grads.accumulate(&g);
        }
        (loss, grads)
    };
    let batched_step = || {
        let plan = QTrainPlan::compile(&qm, &model, &in_dims);
        plan.loss_and_param_grads_batch(images.len(), |i| &images[i], |i| labels[i], &lut)
    };
    // Warm-up + correctness: both paths must agree bit-for-bit.
    assert_eq!(
        scalar_step(),
        batched_step(),
        "batched STE gradient diverged from the per-image fold"
    );
    let scalar_ms = median_ms(reps, || {
        std::hint::black_box(scalar_step());
    });
    let (batched_ms, batched_par_ms) = median_ms_serial_parallel(reps, caller, || {
        std::hint::black_box(batched_step());
    });
    let speedup = scalar_ms / batched_ms;

    // The retraining defense itself: fine-tune through the approximate
    // forward and re-measure clean quantized accuracy.
    let mut shadow = model.clone();
    let (hist, tuned) = exec::with(caller, || finetune(&mut shadow, &train, &calib, &lut, &cfg))
        .expect("finetune lenet5");
    let ft_acc = tuned.accuracy_with(&test, &lut, test.len());

    let json = format!(
        "{{\n  \"bench\": \"finetune\",\n  \"model\": \"lenet5-1x28\",\n  \"kernel\": \"{kernel_name}\",\n  \
         \"train_images\": {n_train},\n  \"epochs\": {},\n  \"reps\": {reps},\n  \
         \"parallel_threads\": {threads},\n  \"units\": \"ms_per_batch_median\",\n  \
         \"clean_accuracy\": {{\"float\": {float_acc:.4}, \"ptq\": {ptq_acc:.4}, \"finetuned\": {ft_acc:.4}, \"delta\": {:.4}}},\n  \
         \"results\": [\n    {{\"workload\": \"finetune_grad_batch\", \"scalar_ms\": {scalar_ms:.3}, \"batched_ms\": {batched_ms:.3}, \"speedup\": {speedup:.3}, \"batched_parallel_ms\": {batched_par_ms:.3}}}\n  ]\n}}\n",
        cfg.epochs,
        ft_acc - ptq_acc,
    );
    let text = format!(
        "# Approximation-aware fine-tuning (LeNet-5, {kernel_name}, {n_train} train images)\n\n\
         | clean acc: float | PTQ | fine-tuned | epoch losses |\n|---|---|---|---|\n\
         | {:.1}% | {:.1}% | {:.1}% | {:?} |\n\n\
         | workload | scalar ms | batched ms (1 thread) | speedup | batched ms ({threads} threads) |\n|---|---|---|---|---|\n\
         | finetune_grad_batch | {scalar_ms:.2} | {batched_ms:.2} | {speedup:.2}x | {batched_par_ms:.2} |\n",
        100.0 * float_acc,
        100.0 * ptq_acc,
        100.0 * ft_acc,
        hist.losses,
    );
    std::fs::write("BENCH_finetune.json", &json).expect("write BENCH_finetune.json");
    eprintln!("[saved BENCH_finetune.json]");
    bench::emit("bench_finetune", &text);
    if ft_acc < ptq_acc {
        eprintln!("warning: fine-tuning did not improve clean quantized accuracy");
    }
}

/// Part 4: the stuck-at fault campaign smoke (quickstart FFNN config,
/// three registry multipliers). The sweep itself is deterministic and
/// thread-invariant, so every value in `BENCH_faults.json` replays
/// byte-identically; the only timed quantity — faulted-LUT rebuild
/// throughput — is compared against its floor here and recorded as a
/// boolean verdict, with the measured rate on stderr only.
fn faults_report(reps: usize) {
    let n_eval = env_usize("AXDNN_BENCH_FAULT_EVAL", 60);
    let n_faults = env_usize("AXDNN_BENCH_FAULTS", 6);
    let floor_per_s = env_f64("AXDNN_BENCH_MIN_LUT_REBUILD", 5.0);

    // The quickstart smoke config: a briefly trained FFNN, quantized
    // everywhere.
    let train = SynthMnist::generate(&MnistConfig {
        n: 400,
        seed: 51,
        ..Default::default()
    });
    let test = SynthMnist::generate(&MnistConfig {
        n: 200,
        seed: 52,
        ..Default::default()
    });
    let mut model = zoo::ffnn(&mut Rng::seed_from_u64(50));
    fit(
        &mut model,
        &train,
        &TrainConfig {
            epochs: 2,
            lr: 0.1,
            ..Default::default()
        },
    );
    let calib: Vec<Tensor> = (0..32).map(|i| train.image(i).clone()).collect();
    let qm = QuantModel::from_float(&model, &calib, Placement::All).expect("quantize ffnn");

    let mults = ["1JFF", "17KS", "L40"];
    let opts = FaultSweepOpts {
        n_eval,
        n_faults,
        ..Default::default()
    };
    let report = run_fault_sweep(&model, &qm, &test, &mults, &opts).expect("fault sweep");

    // LUT-rebuild throughput: faulted netlist → 64Ki table, the
    // per-fault cost every campaign cell pays.
    let nl = Registry::standard()
        .find("17KS")
        .expect("registered")
        .build_netlist();
    let fault_sets = sample_single_faults(&nl, n_faults, opts.seed, 1);
    let rebuild_ms = median_ms(reps, || {
        for fs in &fault_sets {
            std::hint::black_box(axmul::FaultedMul::from_netlist("17KS", &nl, fs.clone()));
        }
    });
    let per_s = fault_sets.len() as f64 / (rebuild_ms / 1e3);
    let meets_floor = per_s >= floor_per_s;
    eprintln!(
        "[fault campaign: {per_s:.1} faulted-LUT rebuilds/s, floor {floor_per_s} — {}]",
        if meets_floor { "ok" } else { "BELOW FLOOR" }
    );

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"fault_campaign\",\n");
    json.push_str("  \"model\": \"ffnn-1x28\",\n");
    json.push_str(&format!("  \"attack\": \"{}\",\n", report.attack));
    json.push_str(&format!("  \"eps\": {},\n", report.eps));
    json.push_str(&format!("  \"n_eval\": {n_eval},\n"));
    json.push_str(&format!(
        "  \"campaign\": {{\"n_faults\": {}, \"seed\": {}}},\n",
        report.n_faults, report.seed
    ));
    json.push_str(&format!(
        "  \"lut_rebuild\": {{\"floor_per_s\": {floor_per_s}, \"meets_floor\": {meets_floor}}},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mult\": \"{}\", \"sites\": {}, \"clean\": {:.4}, \"adv\": {:.4}, \
             \"fault_clean_mean\": {:.4}, \"fault_clean_worst\": {:.4}, \
             \"fault_adv_mean\": {:.4}, \"fault_adv_worst\": {:.4}}}{}\n",
            row.mult,
            row.sites,
            row.clean,
            row.adv,
            row.mean_fault_clean(),
            row.worst_fault_clean(),
            row.mean_fault_adv(),
            row.worst_fault_adv(),
            if i + 1 < report.rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
    eprintln!("[saved BENCH_faults.json]");
    // The text artifact is the deterministic sweep report alone — no
    // timings — so it too is byte-identical across runs.
    bench::emit("bench_faults", &report.to_text());
}

/// Part 6: the universal-robustness smoke (quickstart FFNN config, three
/// registry multipliers). One universal delta is crafted on the float
/// surrogate and shared by every victim column; each multiplier is then
/// hardened with quantized universal adversarial training and re-judged
/// against the *same* delta. Crafter, trainer and evaluation are all
/// deterministic and thread-invariant, so every value in
/// `BENCH_universal.json` replays byte-identically; the craft and sweep
/// wall times go to stderr only. The verdict — hardening beats PTQ under
/// the universal delta, averaged over the multiplier grid — is computed
/// here and recorded as a boolean.
fn universal_report() {
    let n_eval = env_usize("AXDNN_BENCH_UNIVERSAL_EVAL", 60);
    let n_craft = env_usize("AXDNN_BENCH_UNIVERSAL_CRAFT", 80);

    // The quickstart smoke config: a briefly trained FFNN, quantized
    // everywhere (the FFNN is dense-only, so `Placement::All` is what
    // makes the victims actually route through the LUT multipliers).
    let train = SynthMnist::generate(&MnistConfig {
        n: 400,
        seed: 51,
        ..Default::default()
    });
    let test = SynthMnist::generate(&MnistConfig {
        n: 200,
        seed: 52,
        ..Default::default()
    });
    let mut model = zoo::ffnn(&mut Rng::seed_from_u64(50));
    fit(
        &mut model,
        &train,
        &TrainConfig {
            epochs: 2,
            lr: 0.1,
            ..Default::default()
        },
    );

    let mults = ["1JFF", "17KS", "L40"];
    let opts = UniversalSweepOpts {
        craft_epochs: 5,
        n_eval,
        n_craft,
        cfg: FinetuneConfig {
            epochs: 1,
            batch_size: 32,
            lr: 0.005,
            placement: Placement::All,
            eval_cap: n_eval,
            ..Default::default()
        },
        ..Default::default()
    };
    let start = Instant::now();
    let (report, delta) =
        run_universal_sweep(&model, &train, &test, &mults, &opts).expect("universal sweep");
    let sweep_s = start.elapsed().as_secs_f64();
    eprintln!(
        "[universal sweep: {sweep_s:.1}s total, delta linf {:.4}]",
        delta.linf_norm()
    );

    let mean = |f: fn(&axrobust::universal::UniversalRow) -> f32| {
        report.rows.iter().map(|r| f(r) as f64).sum::<f64>() / report.rows.len() as f64
    };
    let hardening_helps = mean(|r| r.universal_after) > mean(|r| r.universal_before);
    if !hardening_helps {
        eprintln!("warning: universal training did not beat PTQ under the universal delta");
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"universal_robustness\",\n");
    json.push_str("  \"model\": \"ffnn-1x28\",\n");
    json.push_str(&format!("  \"norm\": \"{}\",\n", report.norm));
    json.push_str(&format!("  \"eps\": {},\n", report.eps));
    json.push_str(&format!("  \"craft_epochs\": {},\n", report.craft_epochs));
    json.push_str(&format!("  \"n_eval\": {n_eval},\n"));
    json.push_str(&format!("  \"n_craft\": {n_craft},\n"));
    json.push_str(&format!(
        "  \"verdict\": {{\"hardening_helps\": {hardening_helps}}},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mult\": \"{}\", \"clean_before\": {:.4}, \"universal_before\": {:.4}, \
             \"clean_after\": {:.4}, \"universal_after\": {:.4}}}{}\n",
            row.mult,
            row.clean_before,
            row.universal_before,
            row.clean_after,
            row.universal_after,
            if i + 1 < report.rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_universal.json", &json).expect("write BENCH_universal.json");
    eprintln!("[saved BENCH_universal.json]");
    // The text artifact is the deterministic sweep table alone, so it is
    // byte-identical across runs too.
    bench::emit("bench_universal", &report.to_text());
}

/// Part 7: the moving-target defense smoke (quickstart FFNN config,
/// three registry multipliers plus the uniform randomized ensemble).
/// The static PGD-linf and adaptive EOT sets are both crafted on the
/// float surrogate; every victim row — each fixed kernel and the
/// per-query ensemble — is scored on the same three sets. The sweep is
/// deterministic and thread-invariant, so every value in
/// `BENCH_mtd.json` replays byte-identically; wall time goes to stderr
/// only. The honesty verdict — the adaptive attacker is no *weaker*
/// than the static one against the ensemble — is recorded as a boolean.
fn mtd_report() {
    let n_eval = env_usize("AXDNN_BENCH_MTD_EVAL", 60);

    // The quickstart smoke config: a briefly trained FFNN, quantized
    // everywhere.
    let train = SynthMnist::generate(&MnistConfig {
        n: 400,
        seed: 51,
        ..Default::default()
    });
    let test = SynthMnist::generate(&MnistConfig {
        n: 200,
        seed: 52,
        ..Default::default()
    });
    let mut model = zoo::ffnn(&mut Rng::seed_from_u64(50));
    fit(
        &mut model,
        &train,
        &TrainConfig {
            epochs: 2,
            lr: 0.1,
            ..Default::default()
        },
    );
    let calib: Vec<Tensor> = (0..32).map(|i| train.image(i).clone()).collect();
    let qm = QuantModel::from_float(&model, &calib, Placement::All).expect("quantize ffnn");

    let mults = ["1JFF", "17KS", "L40"];
    let opts = MtdSweepOpts {
        n_eval,
        samples: 2,
        ..Default::default()
    };
    let start = Instant::now();
    let report = run_mtd_sweep(&model, &qm, &test, &mults, &opts).expect("mtd sweep");
    eprintln!(
        "[mtd sweep: {:.1}s total, {} fixed rows + ensemble]",
        start.elapsed().as_secs_f64(),
        report.rows.len()
    );

    let adaptive_no_better_than_static =
        report.ensemble.adaptive_adv <= report.ensemble.static_adv + 1e-6;
    if !adaptive_no_better_than_static {
        eprintln!("warning: adaptive EOT scored above the static attack on the ensemble");
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"mtd_robustness\",\n");
    json.push_str("  \"model\": \"ffnn-1x28\",\n");
    json.push_str(&format!("  \"eps\": {},\n", report.eps));
    json.push_str(&format!("  \"samples\": {},\n", report.samples));
    json.push_str(&format!("  \"seed\": {},\n", report.seed));
    json.push_str(&format!("  \"n_eval\": {n_eval},\n"));
    json.push_str(&format!(
        "  \"verdict\": {{\"adaptive_no_better_than_static\": {adaptive_no_better_than_static}}},\n"
    ));
    json.push_str("  \"results\": [\n");
    let all_rows: Vec<&axrobust::MtdRow> = report
        .rows
        .iter()
        .chain(std::iter::once(&report.ensemble))
        .collect();
    for (i, row) in all_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mult\": \"{}\", \"clean\": {:.4}, \"static_adv\": {:.4}, \"adaptive_adv\": {:.4}}}{}\n",
            row.mult,
            row.clean,
            row.static_adv,
            row.adaptive_adv,
            if i + 1 < all_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_mtd.json", &json).expect("write BENCH_mtd.json");
    eprintln!("[saved BENCH_mtd.json]");
    // The text artifact is the deterministic grid alone, byte-identical
    // across runs like the JSON.
    bench::emit("bench_mtd", &report.to_text());
}
