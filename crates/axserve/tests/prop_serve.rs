//! Determinism property tests: the serving path is bit-identical to the
//! offline batch engine no matter how it is scheduled.
//!
//! For random models, batcher tunings (`max_batch`, `linger`), worker
//! counts {1, 3} and thread counts {1, 4} (scoped with `exec::with`), N concurrent clients each
//! submit one request; every completed response must be byte-identical
//! to an offline `forward_batch_with` pass with the same kernel. This is
//! the serving-layer extension of the engine-wide contract: concurrency
//! and coalescing are performance knobs, never numerics knobs.

use std::time::Duration;

use axmul::{ExactMul, MulLut};
use axnn::layer::{AvgPool2d, Conv2d, Dense, Layer};
use axnn::model::Sequential;
use axquant::{Placement, QuantModel};
use axserve::{Request, Server, ServerConfig};
use axtensor::Tensor;
use axutil::exec;
use axutil::rng::Rng;
use proptest::prelude::*;

const IN_DIMS: [usize; 3] = [1, 6, 6];
const N_CLIENTS: usize = 10;

fn small_model(arch: usize, seed: u64) -> Sequential {
    let rng = &mut Rng::seed_from_u64(seed);
    match arch % 3 {
        0 => Sequential::new(
            "s-ffnn",
            vec![
                Layer::Flatten,
                Layer::Dense(Dense::new(36, 8, rng)),
                Layer::Relu,
                Layer::Dense(Dense::new(8, 4, rng)),
            ],
        ),
        1 => Sequential::new(
            "s-conv",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 0, rng)),
                Layer::Relu,
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 4 * 4, 4, rng)),
            ],
        ),
        _ => Sequential::new(
            "s-convpool",
            vec![
                Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, rng)),
                Layer::Relu,
                Layer::AvgPool(AvgPool2d::new(2)),
                Layer::Flatten,
                Layer::Dense(Dense::new(2 * 3 * 3, 4, rng)),
            ],
        ),
    }
}

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t = Tensor::zeros(&IN_DIMS);
            rng.fill_range_f32(t.data_mut(), 0.0, 1.0);
            t
        })
        .collect()
}

fn biased_lut() -> MulLut {
    MulLut::from_fn("biased", |a, b| {
        ((a as u16).wrapping_mul(b as u16) & !0x7).wrapping_add((a as u16) & 3)
    })
}

/// One server configuration under test: spins a server, fires N
/// concurrent clients (odd indices request the LUT kernel), and checks
/// every response byte-for-byte against the offline expectations.
#[allow(clippy::too_many_arguments)]
fn check_one_config(
    qm: QuantModel,
    imgs: &[Tensor],
    want_exact: &[Vec<Tensor>],
    want_lut: &[Vec<Tensor>],
    workers: usize,
    max_batch: usize,
    linger: Duration,
    stagger_seed: u64,
) -> Result<(), String> {
    let server = Server::builder()
        .model("m", qm)
        .kernel("biased", biased_lut())
        .serve(ServerConfig {
            workers,
            max_batch,
            linger,
            ..ServerConfig::default()
        });
    let responses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = imgs
            .iter()
            .enumerate()
            .map(|(i, img)| {
                let server = &server;
                s.spawn(move || {
                    // A deterministic per-client stagger varies how the
                    // batcher interleaves arrivals across proptest cases.
                    let jitter = (stagger_seed >> (i % 13)) & 0x7F;
                    std::thread::sleep(Duration::from_micros(jitter));
                    let kernel = if i % 2 == 0 { "exact" } else { "biased" };
                    server.predict(Request::new("m", kernel, img.clone()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, result) in responses.into_iter().enumerate() {
        let resp = result.map_err(|e| format!("client {i} failed: {e}"))?;
        let (name, want) = if i % 2 == 0 {
            ("exact", &want_exact[i][0])
        } else {
            ("biased", &want_lut[i][0])
        };
        if resp.kernel != name || resp.degraded {
            return Err(format!(
                "client {i}: answered by {} (degraded={}), requested {name}",
                resp.kernel, resp.degraded
            ));
        }
        if &resp.logits != want {
            return Err(format!(
                "client {i}: served logits != offline forward_batch_with \
                 (workers {workers}, max_batch {max_batch}, linger {linger:?})"
            ));
        }
        if resp.class != want.argmax() {
            return Err(format!("client {i}: class != argmax(logits)"));
        }
    }
    let stats = server.stats();
    if stats.completed != N_CLIENTS as u64 {
        return Err(format!("completed {} != {N_CLIENTS}", stats.completed));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn concurrent_serving_is_bit_identical_to_offline(
        seed in proptest::strategy::any::<u64>(),
        arch in 0usize..3,
        max_batch in 1usize..=6,
        linger_us in 0u64..=800,
    ) {
        let model = small_model(arch, seed);
        let calib = images(4, seed ^ 0xCA11B);
        let imgs = images(N_CLIENTS, seed ^ 0x5E);
        let lut = biased_lut();

        let outcome = [1, 4].into_iter().try_for_each(|threads| {
            exec::with(exec::current().with_threads(threads), || {
                // Offline ground truth, recomputed under each thread setting
                // (it is itself thread-invariant; recomputing proves it).
                let qm = QuantModel::from_float(&model, &calib, Placement::All)
                    .expect("supported topology");
                let plan = qm.plan(&IN_DIMS);
                let want_exact = plan.forward_batch_with(&imgs, &[&ExactMul]);
                let want_lut = plan.forward_batch_with(&imgs, &[&lut]);
                drop(plan);
                [1usize, 3].into_iter().try_for_each(|workers| {
                    // The server takes ownership; rebuild deterministically.
                    let qm = QuantModel::from_float(&model, &calib, Placement::All)
                        .expect("supported topology");
                    check_one_config(
                        qm,
                        &imgs,
                        &want_exact,
                        &want_lut,
                        workers,
                        max_batch,
                        Duration::from_micros(linger_us),
                        seed ^ (workers as u64),
                    )
                    .map_err(|msg| format!("threads={threads}: {msg}"))
                })
            })
        });
        if let Err(msg) = outcome {
            prop_assert!(false, "{msg}");
        }
    }
}
