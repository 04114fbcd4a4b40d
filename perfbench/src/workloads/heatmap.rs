//! The paper's heatmap figures: one `experiments::run(spec)` with
//! `Task::Heatmaps` per repetition.
//!
//! * `heatmap-lenet5-bim` — LeNet-5 on SynthMnist, M1..M9, BIM-linf
//!   (Fig 4a). Crafting (`axattack` plus `FPlan` input gradients)
//!   dominates; `QPlan` scoring is the rest.
//! * `heatmap-alexnet-cr` — AlexNet-mini on SynthCifar, M1..M8, CR-l2
//!   (Fig 7a). Crafting is almost free, so `QPlan` LUT conv-GEMM is
//!   nearly all the work: a GEMM gain shows here, an attack gain does not.
//!
//! The untraced run times whole `experiments::run` calls. The traced run
//! repeats the same calls untraced and also breaks each into its public
//! parts — `craft_adversarial_set` per ε and `QPlan::predict_batch_indexed`
//! over all columns — inside spans, and checks that the decomposition
//! reproduces the untraced grid bit for bit.

use axattack::suite::AttackId;
use axdata::cifar::{CifarConfig, SynthCifar};
use axdata::mnist::{MnistConfig, SynthMnist};
use axdata::Dataset;
use axmul::{MulLut, Registry};
use axnn::train::{fit, TrainConfig};
use axnn::{zoo, Sequential};
use axquant::{Placement, QPlan, QuantModel};
use axrobust::eval::{craft_adversarial_set, paper_eps_grid};
use axrobust::experiments::{run, ExperimentSpec, FigureOpts, ModelInputs, MultSet, Task};
use axrobust::RobustnessGrid;
use axtensor::Tensor;
use axutil::rng::Rng;

use super::{
    forward_work, fplan_probe_ms, measure, push_cpu, push_setup, push_setup_layers, repeated_setup,
    timed, Ctx,
};
use crate::report::{Fnv, Outcome};
use crate::stats::median;
use crate::trace::SpanId;

/// One heatmap workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name (also the spec name).
    pub name: &'static str,
    /// Which network and dataset.
    pub net: Net,
    /// The multiplier columns.
    pub mults: fn() -> MultSet,
    /// The attack.
    pub attack: AttackId,
    /// Gradient steps per image at a non-zero ε (0 for the gradient-free
    /// attacks), for the computed `axattack.grad_evals`.
    pub grad_steps: usize,
    /// Images in the evaluation set.
    pub n_eval: usize,
    /// Training images for the float source model.
    pub n_train: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Training minibatch size.
    pub batch_size: usize,
    /// Floor on clean M1 accuracy at ε = 0 (chance is 0.1).
    pub min_clean_acc: f32,
}

/// The network/dataset pair of a heatmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// LeNet-5 on SynthMnist.
    Lenet5Mnist,
    /// AlexNet-mini on SynthCifar.
    AlexnetCifar,
}

/// `heatmap-lenet5-bim`: Fig 4a.
pub const LENET5_BIM: Shape = Shape {
    name: "heatmap-lenet5-bim",
    net: Net::Lenet5Mnist,
    mults: || MultSet::Mnist,
    attack: AttackId::BimLinf,
    grad_steps: 10,
    n_eval: 60,
    n_train: 600,
    epochs: 2,
    lr: 0.04,
    batch_size: 32,
    min_clean_acc: 0.6,
};

/// `heatmap-alexnet-cr`: Fig 7a.
pub const ALEXNET_CR: Shape = Shape {
    name: "heatmap-alexnet-cr",
    net: Net::AlexnetCifar,
    mults: || MultSet::Cifar,
    attack: AttackId::CrL2,
    grad_steps: 0,
    n_eval: 24,
    n_train: 400,
    epochs: 2,
    lr: 0.01,
    batch_size: 8,
    min_clean_acc: 0.2,
};

/// Trained source, quantized victim and evaluation data.
struct Setup {
    model: Sequential,
    victim: QuantModel,
    test: Dataset,
    train: Dataset,
}

fn generate(shape: &Shape, n: usize, seed: u64) -> Dataset {
    match shape.net {
        Net::Lenet5Mnist => SynthMnist::generate(&MnistConfig {
            n,
            seed,
            ..Default::default()
        }),
        // Milder noise and tint than the generator's defaults, so that two
        // cheap epochs train AlexNet-mini clearly above chance on every
        // seed; the cost of a forward pass does not depend on the pixels.
        Net::AlexnetCifar => SynthCifar::generate(&CifarConfig {
            n,
            seed,
            noise_std: 0.05,
            tint: 0.05,
        }),
    }
}

fn setup(ctx: &Ctx<'_>, shape: &Shape, parent: Option<SpanId>) -> Setup {
    let t = ctx.tracer;
    let (train, test) = t.span("axdata.generate", parent, |_| {
        (
            generate(shape, shape.n_train, ctx.derive(1)),
            generate(shape, shape.n_eval, ctx.derive(2)),
        )
    });
    let mut rng = Rng::seed_from_u64(ctx.derive(3));
    let mut model = match shape.net {
        Net::Lenet5Mnist => zoo::lenet5(&mut rng),
        Net::AlexnetCifar => zoo::alexnet_mini(&mut rng),
    };
    let cfg = TrainConfig {
        epochs: shape.epochs,
        lr: shape.lr,
        batch_size: shape.batch_size,
        seed: ctx.derive(4),
        ..Default::default()
    };
    t.span("axnn.fit", parent, |_| fit(&mut model, &train, &cfg));
    t.count("axnn.fit_images", (shape.epochs * train.len()) as f64);
    let calib: Vec<Tensor> = (0..32.min(train.len()))
        .map(|i| train.image(i).clone())
        .collect();
    let victim = t.span("axquant.quantize", parent, |_| {
        QuantModel::from_float(&model, &calib, Placement::ConvOnly)
            .expect("the zoo networks quantize")
    });
    // The columns `run` resolves on every call; built here once so set-up
    // pays for the LUTs and `axmul.lut_build` is visible on its own.
    t.span("axmul.lut_build", parent, |_| {
        (shape.mults)().columns(&Registry::standard())
    });
    Setup {
        model,
        victim,
        test,
        train,
    }
}

fn spec<'a>(shape: &Shape, s: &'a Setup) -> ExperimentSpec<'a> {
    ExperimentSpec {
        name: shape.name,
        model: ModelInputs::Single {
            source: &s.model,
            victim: &s.victim,
            data: &s.test,
        },
        mult_set: (shape.mults)(),
        attacks: vec![shape.attack],
        task: Task::Heatmaps,
    }
}

fn grid_hash(grids: &[RobustnessGrid]) -> u64 {
    let mut h = Fnv::default();
    for g in grids {
        h.bytes(g.attack().as_bytes());
        h.f32s(g.eps());
        for (j, m) in g.mults().iter().enumerate() {
            h.bytes(m.as_bytes());
            h.f32s(
                &(0..g.eps().len())
                    .map(|i| g.accuracy(i, j))
                    .collect::<Vec<_>>(),
            );
        }
    }
    h.finish()
}

/// The traced decomposition of `run(spec)` for `Task::Heatmaps`: the
/// same public calls `robustness_grid` makes, each in its own span.
fn traced_grid(
    ctx: &Ctx<'_>,
    shape: &Shape,
    s: &Setup,
    opts: &FigureOpts,
    parent: Option<SpanId>,
) -> RobustnessGrid {
    let t = ctx.tracer;
    let columns = t.span("axmul.lut_build", parent, |_| {
        (shape.mults)().columns(&Registry::standard())
    });
    let kernels: Vec<&MulLut> = columns.payloads();
    let mut plan: Option<QPlan<'_>> = None;
    let mut acc = Vec::with_capacity(opts.eps_grid.len());
    for &eps in &opts.eps_grid {
        let advs = t.span("axattack.craft_batch", parent, |_| {
            craft_adversarial_set(&s.model, shape.attack, &s.test, eps, opts.n_eval, opts.seed)
        });
        t.count("axattack.crafted", advs.len() as f64);
        if eps > 0.0 {
            t.count(
                "axattack.grad_evals",
                (advs.len() * shape.grad_steps) as f64,
            );
        }
        let plan = plan.get_or_insert_with(|| {
            t.span("axquant.qplan.compile", parent, |_| {
                s.victim.plan(advs[0].0.dims())
            })
        });
        let preds = t.span("axquant.qplan.predict", parent, |_| {
            plan.predict_batch_indexed(advs.len(), |i| &advs[i].0, &kernels)
        });
        t.count(
            "axquant.qplan.forwards",
            (advs.len() * kernels.len()) as f64,
        );
        let mut correct = vec![0usize; kernels.len()];
        for (row, &(_, label)) in preds.iter().zip(&advs) {
            for (c, &p) in correct.iter_mut().zip(row) {
                *c += usize::from(p == label);
            }
        }
        acc.push(
            correct
                .into_iter()
                .map(|c| c as f32 / advs.len() as f32)
                .collect(),
        );
    }
    RobustnessGrid::new(
        shape.attack.name(),
        s.test.name(),
        opts.eps_grid.clone(),
        columns.names(),
        acc,
    )
}

/// Runs a heatmap workload.
pub fn run_workload(ctx: &Ctx<'_>, shape: &Shape) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_walls, setup_cpus) = repeated_setup(ctx, |p| setup(ctx, shape, p));
    push_setup(&mut out, &setup_walls, &setup_cpus);

    let opts = FigureOpts {
        n_eval: shape.n_eval,
        seed: ctx.derive(5),
        eps_grid: paper_eps_grid(),
    };
    let spec = spec(shape, &s);
    let untraced = |_| {
        run(&spec, &opts)
            .expect("heatmap specs are well-formed")
            .into_grids()
            .expect("the heatmap task returns grids")
    };

    let t = ctx.tracer;
    let mut traced_walls = Vec::new();
    let mut traced_hashes = Vec::new();
    let calls = if ctx.traced() {
        // Alternate untraced and traced calls, so the overhead compares
        // neighbours in time.
        measure(ctx.seconds, 2, |i| {
            if i % 2 == 0 {
                untraced(i)
            } else {
                let (grid, wall) = timed(|| {
                    t.span("axrobust.experiments.run", None, |p| {
                        traced_grid(ctx, shape, &s, &opts, p)
                    })
                });
                traced_walls.push(wall);
                traced_hashes.push(grid_hash(std::slice::from_ref(&grid)));
                vec![grid]
            }
        })
        .into_iter()
        .step_by(2)
        .collect()
    } else {
        measure(ctx.seconds, 2, untraced)
    };

    let hashes: Vec<u64> = calls.iter().map(|(g, _, _)| grid_hash(g)).collect();
    let walls: Vec<f64> = calls.iter().map(|c| c.1).collect();
    let grid = &calls[0].0[0];
    let evals = (s.test.len() * grid.eps().len() * grid.mults().len()) as f64;
    let rates: Vec<f64> = walls.iter().map(|w| evals / w).collect();
    out.attempted = (calls.len() + traced_hashes.len()) as u64;
    out.result_hash = hashes[0];
    out.failed = hashes
        .iter()
        .chain(&traced_hashes)
        .filter(|&&h| h != hashes[0])
        .count() as u64;
    out.check(out.failed == 0, || {
        format!(
            "{}: grid hashes differ across repeats with the same seed",
            shape.name
        )
    });
    let clean = grid.accuracy(0, 0);
    let columns = (shape.mults)().columns(&Registry::standard());
    let reference = s
        .victim
        .accuracy_with(&s.test, columns.payload(0), s.test.len());
    out.check(clean.to_bits() == reference.to_bits(), || {
        format!(
            "{}: clean M1 accuracy {clean} in the grid differs from the victim's own {reference}",
            shape.name
        )
    });
    out.check(clean >= shape.min_clean_acc, || {
        format!(
            "{}: clean M1 accuracy {clean} below the floor {}",
            shape.name, shape.min_clean_acc
        )
    });
    out.push("accuracy.clean_m1", f64::from(clean), "ratio", s.test.len());

    out.push("work_per_s", median(&rates), "1/s", rates.len());
    out.push("grid_evals_per_s", median(&rates), "1/s", rates.len());
    out.push("latency_ms", median(&walls) * 1e3, "ms", walls.len());
    push_cpu(
        &mut out,
        "run",
        &calls.iter().map(|c| c.2).collect::<Vec<_>>(),
    );

    if ctx.traced() {
        per_layer(ctx, &s, &mut out, &walls, &traced_walls);
    }
    out
}

fn per_layer(
    ctx: &Ctx<'_>,
    s: &Setup,
    out: &mut Outcome,
    untraced_walls: &[f64],
    traced_walls: &[f64],
) {
    let t = ctx.tracer;
    let calls = traced_walls.len() as f64;
    let phase = t.total_s("axrobust.experiments.run");
    let craft = t.total_s("axattack.craft_batch");
    let predict = t.total_s("axquant.qplan.predict");
    let grad_evals = t.counter("axattack.grad_evals");
    let forwards = t.counter("axquant.qplan.forwards");
    let (macs, bytes) = forward_work(&s.model, s.test.image(0).dims());
    let n = traced_walls.len();
    out.push("axattack.craft_s", craft / calls, "s", n);
    out.push(
        "axattack.crafted",
        t.counter("axattack.crafted") / calls,
        "count",
        n,
    );
    out.push("axattack.grad_evals", grad_evals / calls, "count", n);
    out.push(
        "axattack.grad_evals_per_s",
        if craft > 0.0 { grad_evals / craft } else { 0.0 },
        "1/s",
        n,
    );
    let compiles = t.durations_s("axquant.qplan.compile");
    out.push(
        "axquant.qplan.compile_ms",
        median(&compiles) * 1e3,
        "ms",
        compiles.len(),
    );
    out.push("axquant.qplan.predict_s", predict / calls, "s", n);
    out.push("axquant.qplan.forwards", forwards / calls, "count", n);
    out.push("axquant.qplan.macs", forwards * macs / calls, "count", n);
    out.push("axquant.qplan.bytes", forwards * bytes / calls, "B", n);
    out.push(
        "axquant.qplan.gmac_per_s",
        forwards * macs / predict / 1e9,
        "GMAC/s",
        n,
    );
    out.push("axquant.qplan.share", predict / phase, "ratio", n);
    out.push(
        "axrobust.driver_self_s",
        (phase - craft - predict) / calls,
        "s",
        n,
    );
    let luts = t.durations_s("axmul.lut_build");
    out.push("axmul.lut_build_ms", median(&luts) * 1e3, "ms", luts.len());
    let (param_ms, input_ms) = fplan_probe_ms(&s.model, &s.train);
    out.push("axnn.fplan.param_grad_batch_ms", param_ms, "ms", 1);
    out.push("axnn.fplan.input_grad_batch_ms", input_ms, "ms", 1);
    push_setup_layers(out, ctx);
    out.push(
        "trace.overhead_s",
        median(traced_walls) - median(untraced_walls),
        "s",
        n,
    );
}
