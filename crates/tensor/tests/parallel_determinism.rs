//! Property tests of the determinism contract: every parallel operator in
//! `albireo-tensor` is bit-identical to its serial execution for arbitrary
//! shapes and any thread count (the workspace's standard counts 1/2/8 plus
//! an oversubscribed 64).

use albireo_parallel::Parallelism;
use albireo_tensor::conv::{conv2d_grouped_with, ConvSpec};
use albireo_tensor::{Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 4] = [1, 2, 8, 64];

fn conv_case(seed: u64, z: usize, n: usize, m: usize, k: usize) -> (Tensor3, Tensor4) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Tensor3::random_uniform(z, n, n, -1.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(m, z, k, k, 0.5, &mut rng);
    (input, kernels)
}

proptest! {
    #[test]
    fn conv2d_bit_identical_at_any_thread_count(
        seed in 0u64..1 << 32,
        z in 1usize..4,
        n in 4usize..10,
        m in 1usize..7,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
    ) {
        let (input, kernels) = conv_case(seed, z, n, m, k);
        let spec = ConvSpec::new(stride, padding);
        let serial = conv2d_grouped_with(&input, &kernels, &spec, 1, Parallelism::serial());
        for threads in THREAD_COUNTS {
            let policy = Parallelism::with_threads(threads);
            let par = conv2d_grouped_with(&input, &kernels, &spec, 1, policy);
            prop_assert_eq!(&par, &serial);
        }
    }

    #[test]
    fn depthwise_bit_identical_at_any_thread_count(
        seed in 0u64..1 << 32,
        z in 1usize..5,
        n in 4usize..10,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(z, n, n, -1.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(z, 1, k, k, 0.5, &mut rng);
        let spec = ConvSpec::unit();
        let serial = conv2d_grouped_with(&input, &kernels, &spec, z, Parallelism::serial());
        for threads in THREAD_COUNTS {
            let policy = Parallelism::with_threads(threads);
            let par = conv2d_grouped_with(&input, &kernels, &spec, z, policy);
            prop_assert_eq!(&par, &serial);
        }
    }

    #[test]
    fn pointwise_bit_identical_at_any_thread_count(
        seed in 0u64..1 << 32,
        z in 1usize..5,
        n in 2usize..8,
        m in 1usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(z, n, n, -1.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(m, z, 1, 1, 0.5, &mut rng);
        let spec = ConvSpec::unit();
        let serial = conv2d_grouped_with(&input, &kernels, &spec, 1, Parallelism::serial());
        for threads in THREAD_COUNTS {
            let policy = Parallelism::with_threads(threads);
            let par = conv2d_grouped_with(&input, &kernels, &spec, 1, policy);
            prop_assert_eq!(&par, &serial);
        }
    }
}
