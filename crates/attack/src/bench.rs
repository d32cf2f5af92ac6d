//! Micro-benchmark registry for the attack kernels (`obsctl bench`).

use crate::{Attack, NormBall, Pgd};
use opad_detect::OpDensityDetector;
use opad_nn::{Activation, Network};
use opad_opmodel::{Gmm, GmmComponent};
use opad_par::Rng;
use opad_telemetry::{BenchKernel, Benchmarkable};
use opad_tensor::Tensor;
use std::hint::black_box;

/// The crate's [`Benchmarkable`] registry: one PGD attack and one
/// naturalness-guided PGD attack per iteration, end to end (the budget
/// unit of the paper's testing loop is "one attacked seed").
pub struct AttackBenches;

impl Benchmarkable for AttackBenches {
    fn bench_kernels() -> Vec<BenchKernel> {
        let mut rng = Rng::seed_from_u64(0);
        let net = Network::mlp(&[2, 24, 3], Activation::Relu, &mut rng).expect("layer sizes chain");
        let seed = Tensor::from_slice(&[0.3, -0.2]);
        let ball = NormBall::linf(0.3).expect("positive radius");
        let pgd = Pgd::new(ball, 15, 0.06).expect("nonzero steps");
        let gmm = Gmm::from_components(vec![GmmComponent {
            weight: 1.0,
            mean: vec![0.0, 0.0],
            std: 1.0,
        }])
        .expect("single unit component is a valid mixture");
        let op = OpDensityDetector::new(gmm);
        let mut pgd_net = net.clone();
        let mut pgd_rng = Rng::seed_from_u64(1);
        let mut fuzz_net = net;
        let mut fuzz_rng = Rng::seed_from_u64(2);
        let fuzz_seed = seed.clone();
        vec![
            BenchKernel::new("attack/pgd_15steps", move || {
                black_box(
                    pgd.run(&mut pgd_net, &seed, 0, &mut pgd_rng)
                        .expect("seed dim matches net"),
                );
            }),
            BenchKernel::new("attack/natural_fuzz_15steps", move || {
                // The guided attack borrows its guide, so it is rebuilt per
                // iteration; construction only copies a few scalars, the 15
                // guided steps dominate.
                let fuzz = Pgd::new(ball, 15, 0.06)
                    .expect("nonzero steps")
                    .with_random_start(false)
                    .guided_by(&op, 1.5)
                    .expect("finite weight");
                black_box(
                    fuzz.run(&mut fuzz_net, &fuzz_seed, 0, &mut fuzz_rng)
                        .expect("seed dim matches net"),
                );
            }),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_and_every_kernel_runs() {
        let mut kernels = AttackBenches::bench_kernels();
        assert!(kernels.len() >= 2);
        for k in &mut kernels {
            assert!(k.name.starts_with("attack/"), "{}", k.name);
            (k.run)();
        }
    }
}
