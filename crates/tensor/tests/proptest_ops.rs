//! Property-based tests on the tensor operators: the direct convolution
//! (Algorithm 1) must agree with the independent im2col formulation for
//! arbitrary geometry, and the operators must satisfy their algebraic
//! identities.

use albireo_tensor::conv::{conv2d, conv2d_grouped, fully_connected, max_pool, relu, ConvSpec};
use albireo_tensor::im2col::im2col_conv2d;
use albireo_tensor::shape::output_extent;
use albireo_tensor::{Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tensors(seed: u64, z: usize, n: usize, m: usize, k: usize) -> (Tensor3, Tensor4) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Tensor3::random_uniform(z, n, n, -1.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(m, z, k, k, 0.5, &mut rng);
    (input, kernels)
}

proptest! {
    /// Algorithm 1 and im2col agree for any geometry: each group of a
    /// grouped convolution equals im2col over that group's channel slice.
    #[test]
    fn conv_equals_im2col(
        seed in 0u64..5000,
        z in 1usize..5,
        n in 3usize..12,
        m in 1usize..5,
        stride in 1usize..3,
        padding in 0usize..2,
        groups in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(z * groups, n, n, -1.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(m * groups, z, 3, 3, 0.5, &mut rng);
        prop_assume!(n + 2 * padding >= 3);
        let spec = ConvSpec::new(stride, padding);
        let direct = conv2d_grouped(&input, &kernels, &spec, groups);
        let (channels, weights) = (z * n * n, m * z * 9);
        let mut unrolled = Vec::new();
        for g in 0..groups {
            let sub = input.as_slice()[g * channels..][..channels].to_vec();
            let subk = kernels.as_slice()[g * weights..][..weights].to_vec();
            let part = im2col_conv2d(
                &Tensor3::from_vec(z, n, n, sub),
                &Tensor4::from_vec(m, z, 3, 3, subk),
                &spec,
            );
            unrolled.extend_from_slice(part.as_slice());
        }
        let (_, by, bx) = direct.dims();
        let unrolled = Tensor3::from_vec(m * groups, by, bx, unrolled);
        prop_assert!(direct.max_abs_diff(&unrolled) < 1e-9);
    }

    /// Output shape always matches Eq. 1.
    #[test]
    fn conv_output_shape_matches_eq1(
        z in 1usize..4,
        n in 3usize..16,
        m in 1usize..4,
        stride in 1usize..4,
        padding in 0usize..3,
    ) {
        let (input, kernels) = tensors(1, z, n, m, 3);
        prop_assume!(n + 2 * padding >= 3);
        let spec = ConvSpec::new(stride, padding);
        let out = conv2d(&input, &kernels, &spec);
        let expected = output_extent(n, 3, padding, stride);
        prop_assert_eq!(out.dims(), (m, expected, expected));
    }

    /// Convolution distributes over kernel addition:
    /// conv(A, W1 + W2) = conv(A, W1) + conv(A, W2).
    #[test]
    fn conv_distributes_over_kernels(seed in 0u64..2000) {
        let (input, k1) = tensors(seed, 2, 6, 2, 3);
        let (_, k2) = tensors(seed + 1, 2, 6, 2, 3);
        let mut sum_kernel = k1.clone();
        for (s, v) in sum_kernel.as_mut_slice().iter_mut().zip(k2.as_slice()) {
            *s += v;
        }
        let spec = ConvSpec::unit();
        let combined = conv2d(&input, &sum_kernel, &spec);
        let a = conv2d(&input, &k1, &spec);
        let b = conv2d(&input, &k2, &spec);
        let mut summed = a.clone();
        for (s, v) in summed.as_mut_slice().iter_mut().zip(b.as_slice()) {
            *s += v;
        }
        prop_assert!(combined.max_abs_diff(&summed) < 1e-9);
    }

    /// Grouped convolution with one group equals the dense convolution.
    #[test]
    fn grouped_one_equals_dense(seed in 0u64..2000, z in 1usize..6) {
        let (input, kernels) = tensors(seed, z, 6, 2, 3);
        let spec = ConvSpec::unit();
        let dense = conv2d(&input, &kernels, &spec);
        let grouped = conv2d_grouped(&input, &kernels, &spec, 1);
        prop_assert!(dense.max_abs_diff(&grouped) < 1e-12);
    }

    /// Depthwise + pointwise equals the equivalent rank-1 full convolution.
    #[test]
    fn separable_equals_rank1_full(seed in 0u64..2000, c in 1usize..5, m in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(c, 6, 6, 0.0, 1.0, &mut rng);
        let dw = Tensor4::random_gaussian(c, 1, 3, 3, 0.5, &mut rng);
        let pw = Tensor4::random_gaussian(m, c, 1, 1, 0.5, &mut rng);
        let spec = ConvSpec::unit();
        let separable = conv2d(&conv2d_grouped(&input, &dw, &spec, c), &pw, &spec);
        let mut full = Tensor4::zeros(m, c, 3, 3);
        for mi in 0..m {
            for ci in 0..c {
                for y in 0..3 {
                    for x in 0..3 {
                        full.set(mi, ci, y, x, pw[(mi, ci, 0, 0)] * dw[(ci, 0, y, x)]);
                    }
                }
            }
        }
        let direct = conv2d(&input, &full, &spec);
        prop_assert!(separable.max_abs_diff(&direct) < 1e-8);
    }

    /// FC output is linear in its input.
    #[test]
    fn fc_linearity(seed in 0u64..2000, alpha in 0.1f64..5.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..20).map(|_| rand::Rng::random::<f64>(&mut rng)).collect();
        let w: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..20).map(|_| rand::Rng::random::<f64>(&mut rng) - 0.5).collect())
            .collect();
        let base = fully_connected(&a, &w);
        let scaled_in: Vec<f64> = a.iter().map(|v| v * alpha).collect();
        let scaled = fully_connected(&scaled_in, &w);
        for (s, b) in scaled.iter().zip(base.iter()) {
            prop_assert!((s - b * alpha).abs() < 1e-9 * alpha.max(1.0) * 20.0);
        }
    }

    /// Max pool dominates the mean of each 2×2 window.
    #[test]
    fn max_pool_dominates_avg(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(2, 8, 8, -1.0, 1.0, &mut rng);
        let mx = max_pool(&input, 2, 2);
        for z in 0..2 {
            for y in 0..4 {
                for x in 0..4 {
                    let window = [(0, 0), (0, 1), (1, 0), (1, 1)];
                    let mean = window
                        .iter()
                        .map(|&(dy, dx)| input[(z, 2 * y + dy, 2 * x + dx)])
                        .sum::<f64>()
                        / 4.0;
                    prop_assert!(mx[(z, y, x)] >= mean);
                }
            }
        }
    }

    /// ReLU is idempotent and non-negative.
    #[test]
    fn relu_idempotent(seed in 0u64..2000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(2, 5, 5, -2.0, 2.0, &mut rng);
        let once = relu(&input);
        let twice = relu(&once);
        prop_assert!(once.max_abs_diff(&twice) < 1e-15);
        prop_assert!(once.iter().all(|&v| v >= 0.0));
    }
}
