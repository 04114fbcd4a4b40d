//! `train-ffnn`: `fit` the FFNN float model, then `finetune` it through
//! the L40 multiplier, once per repetition.
//!
//! The same float engine as the heatmaps, used for parameter gradients
//! instead of input gradients, plus the `QTrainPlan` STE backward. Both
//! run on 32-image batches, small enough that `axutil::parallel` spawn
//! overhead shows: this is where more threads can make a run slower.

use axdata::mnist::{MnistConfig, SynthMnist};
use axdata::Dataset;
use axmul::{MulLut, Registry};
use axnn::train::{eval_on, fit, TrainConfig};
use axnn::{zoo, Layer, Sequential};
use axquant::{finetune, FinetuneConfig, Placement, QTrainPlan, QuantModel};
use axtensor::Tensor;
use axutil::rng::Rng;

use super::{
    fplan_probe_ms, measure, probe_ms, push_cpu, push_setup, push_setup_layers, repeated_setup,
    timed, Ctx, PROBE_BATCH,
};
use crate::report::{Fnv, Outcome};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

const N_TRAIN: usize = 600;
const N_TEST: usize = 200;
const FIT_EPOCHS: usize = 2;
const FINETUNE_EPOCHS: usize = 1;
/// Floor on the float model's test accuracy after `fit`.
const MIN_FIT_ACC: f32 = 0.8;

struct Setup {
    train: Dataset,
    test: Dataset,
    calib: Vec<Tensor>,
    lut: MulLut,
}

fn setup(ctx: &Ctx<'_>, parent: Option<SpanId>) -> Setup {
    let t = ctx.tracer;
    let (train, test) = t.span("axdata.generate", parent, |_| {
        let gen = |n, seed| {
            SynthMnist::generate(&MnistConfig {
                n,
                seed,
                ..Default::default()
            })
        };
        (gen(N_TRAIN, ctx.derive(1)), gen(N_TEST, ctx.derive(2)))
    });
    let lut = t.span("axmul.lut_build", parent, |_| {
        Registry::standard()
            .build_lut("L40")
            .expect("L40 is registered")
    });
    let calib = (0..32).map(|i| train.image(i).clone()).collect();
    Setup {
        train,
        test,
        calib,
        lut,
    }
}

fn finetune_cfg(ctx: &Ctx<'_>) -> FinetuneConfig {
    FinetuneConfig {
        epochs: FINETUNE_EPOCHS,
        batch_size: 32,
        lr: 0.005,
        seed: ctx.derive(6),
        placement: Placement::All,
        eval_cap: N_TEST,
        ..Default::default()
    }
}

/// One repetition's results, for the repeat hash and the checks.
struct Round {
    hash: u64,
    fit_acc: f32,
    fit_s: f64,
    finetune_s: f64,
}

fn weights_hash(h: &mut Fnv, model: &Sequential) {
    for layer in model.layers() {
        match layer {
            Layer::Conv2d(c) => {
                h.f32s(c.weight().data());
                h.f32s(c.bias().data());
            }
            Layer::Dense(d) => {
                h.f32s(d.weight().data());
                h.f32s(d.bias().data());
            }
            _ => {}
        }
    }
}

fn round(ctx: &Ctx<'_>, t: &Tracer, s: &Setup) -> Round {
    t.span("perfbench.round", None, |root| {
        let mut model = zoo::ffnn(&mut Rng::seed_from_u64(ctx.derive(3)));
        let cfg = TrainConfig {
            epochs: FIT_EPOCHS,
            lr: 0.1,
            seed: ctx.derive(4),
            ..Default::default()
        };
        let (history, fit_s) =
            timed(|| t.span("axnn.fit", root, |_| fit(&mut model, &s.train, &cfg)));
        t.count("axnn.fit_images", (FIT_EPOCHS * s.train.len()) as f64);
        let test: Vec<(Tensor, usize)> = s.test.iter().map(|(x, y)| (x.clone(), y)).collect();
        let fit_acc = eval_on(&model, &test);
        let ((ft_history, _), finetune_s) = timed(|| {
            t.span("axquant.finetune", root, |_| {
                finetune(&mut model, &s.train, &s.calib, &s.lut, &finetune_cfg(ctx))
                    .expect("the FFNN quantizes")
            })
        });
        let mut h = Fnv::default();
        weights_hash(&mut h, &model);
        h.f32s(&history.losses);
        h.f32s(&history.accuracies);
        h.f32s(&ft_history.losses);
        h.f32s(&ft_history.accuracies);
        h.f32s(&[ft_history.initial_accuracy, fit_acc]);
        Round {
            hash: h.finish(),
            fit_acc,
            fit_s,
            finetune_s,
        }
    })
}

/// Runs `train-ffnn`.
pub fn run_workload(ctx: &Ctx<'_>) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_walls, setup_cpus) = repeated_setup(ctx, |p| setup(ctx, p));
    push_setup(&mut out, &setup_walls, &setup_cpus);

    // A traced run alternates untraced and traced rounds, so the tracing
    // overhead compares neighbours in time.
    let off = Tracer::new(false, 0);
    let rounds = measure(ctx.seconds, 2, |i| {
        let t = if ctx.traced() && i % 2 == 1 {
            ctx.tracer
        } else {
            &off
        };
        round(ctx, t, &s)
    });

    let hashes: Vec<u64> = rounds.iter().map(|r| r.0.hash).collect();
    out.attempted = rounds.len() as u64;
    out.result_hash = hashes[0];
    out.failed = hashes.iter().filter(|&&h| h != hashes[0]).count() as u64;
    out.check(out.failed == 0, || {
        "train-ffnn: trained weights differ across repeats with the same seed".to_owned()
    });
    let fit_acc = rounds[0].0.fit_acc;
    out.check(fit_acc >= MIN_FIT_ACC, || {
        format!("train-ffnn: accuracy {fit_acc} after fit below the floor {MIN_FIT_ACC}")
    });
    out.push("accuracy.fit", f64::from(fit_acc), "ratio", N_TEST);

    let n = rounds.len();
    let fit_rate: Vec<f64> = rounds
        .iter()
        .map(|r| (FIT_EPOCHS * N_TRAIN) as f64 / r.0.fit_s)
        .collect();
    let ft_rate: Vec<f64> = rounds
        .iter()
        .map(|r| (FINETUNE_EPOCHS * N_TRAIN) as f64 / r.0.finetune_s)
        .collect();
    let ft_ms: Vec<f64> = rounds.iter().map(|r| r.0.finetune_s * 1e3).collect();
    out.push("work_per_s", median(&fit_rate), "1/s", n);
    out.push("fit_images_per_s", median(&fit_rate), "1/s", n);
    out.push("finetune_images_per_s", median(&ft_rate), "1/s", n);
    out.push("latency_ms", median(&ft_ms), "ms", n);
    push_cpu(
        &mut out,
        "run",
        &rounds.iter().map(|r| r.2).collect::<Vec<_>>(),
    );

    if ctx.traced() {
        per_layer(
            ctx,
            &s,
            &mut out,
            &rounds.iter().map(|r| r.1).collect::<Vec<_>>(),
        );
    }
    out
}

fn per_layer(ctx: &Ctx<'_>, s: &Setup, out: &mut Outcome, walls: &[f64]) {
    let t = ctx.tracer;
    let fts = t.durations_s("axquant.finetune");
    out.push("axquant.finetune_s", median(&fts), "s", fts.len());

    // Outside-in probes on a freshly fitted model: the float plan's
    // batched gradients, and the quantized STE plan's compile and
    // gradient batch under L40.
    let mut model = zoo::ffnn(&mut Rng::seed_from_u64(ctx.derive(3)));
    fit(
        &mut model,
        &s.train,
        &TrainConfig {
            epochs: 1,
            lr: 0.1,
            seed: ctx.derive(4),
            ..Default::default()
        },
    );
    let (param_ms, input_ms) = fplan_probe_ms(&model, &s.train);
    out.push("axnn.fplan.param_grad_batch_ms", param_ms, "ms", 1);
    out.push("axnn.fplan.input_grad_batch_ms", input_ms, "ms", 1);
    let cfg = finetune_cfg(ctx);
    let qm = t.span("axquant.quantize", None, |_| {
        QuantModel::from_float_with_level(&model, &s.calib, cfg.placement, cfg.level)
            .expect("the FFNN quantizes")
    });
    push_setup_layers(out, ctx);
    let dims = s.train.image(0).dims().to_vec();
    let compile_ms = probe_ms(|| {
        std::hint::black_box(QTrainPlan::compile(&qm, &model, &dims));
    });
    out.push("axquant.qtrain.compile_ms", compile_ms, "ms", 1);
    let plan = QTrainPlan::compile(&qm, &model, &dims);
    let n = PROBE_BATCH;
    let grad_ms = probe_ms(|| {
        std::hint::black_box(plan.loss_and_param_grads_batch(
            n,
            |k| s.train.image(k),
            |k| s.train.label(k),
            &s.lut,
        ));
    });
    out.push("axquant.qtrain.grad_batch_ms", grad_ms, "ms", 1);
    let luts = t.durations_s("axmul.lut_build");
    out.push("axmul.lut_build_ms", median(&luts) * 1e3, "ms", luts.len());

    let traced: Vec<f64> = walls.iter().skip(1).step_by(2).copied().collect();
    let untraced: Vec<f64> = walls.iter().step_by(2).copied().collect();
    out.push(
        "trace.overhead_s",
        median(&traced) - median(&untraced),
        "s",
        traced.len(),
    );
}
