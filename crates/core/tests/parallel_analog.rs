//! Property tests of the analog engine's determinism contract: with noise
//! and crosstalk enabled, the parallel simulation is bit-identical to the
//! serial one for arbitrary shapes, seeds, and thread counts, because every
//! (pass, kernel, output-row) work item draws from its own split seed.

use albireo_core::analog::{AnalogEngine, AnalogSimConfig};
use albireo_core::config::ChipConfig;
use albireo_parallel::{split_seed, stream_id, Parallelism};
use albireo_tensor::conv::ConvSpec;
use albireo_tensor::{Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn noisy_config(seed: u64) -> AnalogSimConfig {
    AnalogSimConfig {
        enable_noise: true,
        enable_crosstalk: true,
        seed,
        ..AnalogSimConfig::default()
    }
}

proptest! {
    #[test]
    fn analog_conv_bit_identical_at_any_thread_count(
        data_seed in 0u64..1 << 32,
        noise_seed in 0u64..1 << 32,
        z in 1usize..5,
        n in 4usize..9,
        m in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(data_seed);
        let input = Tensor3::random_uniform(z, n, n, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(m, z, 3, 3, 0.3, &mut rng);
        let chip = ChipConfig::albireo_9();
        let spec = ConvSpec::unit();
        let serial_engine = AnalogEngine::new(&chip, noisy_config(noise_seed))
            .with_parallelism(Parallelism::serial());
        let serial = serial_engine.conv2d(&input, &kernels, &spec);
        for threads in THREAD_COUNTS {
            let engine = AnalogEngine::new(&chip, noisy_config(noise_seed))
                .with_parallelism(Parallelism::with_threads(threads));
            let par = engine.conv2d(&input, &kernels, &spec);
            prop_assert_eq!(&par, &serial);
        }
    }

    #[test]
    fn analog_large_kernel_decomposition_is_deterministic(
        noise_seed in 0u64..1 << 32,
        threads in 2usize..9,
        groups in 1usize..=3,
    ) {
        // 5×5 kernels exceed the 9-MZM PLCU, forcing tiled decomposition —
        // every tile of every group gets its own pass id, so parallel stays
        // bit-identical.
        let mut rng = StdRng::seed_from_u64(7);
        let input = Tensor3::random_uniform(2 * groups, 9, 9, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(3 * groups, 2, 5, 5, 0.3, &mut rng);
        let chip = ChipConfig::albireo_9();
        let spec = ConvSpec::unit();
        let serial_engine = AnalogEngine::new(&chip, noisy_config(noise_seed))
            .with_parallelism(Parallelism::serial());
        let serial = serial_engine.conv2d_grouped(&input, &kernels, &spec, groups);
        let engine = AnalogEngine::new(&chip, noisy_config(noise_seed))
            .with_parallelism(Parallelism::with_threads(threads));
        prop_assert_eq!(&engine.conv2d_grouped(&input, &kernels, &spec, groups), &serial);
    }

    #[test]
    fn seed_derivation_is_stable_under_reordering(
        base in 0u64..u64::MAX / 2,
        passes in proptest::collection::vec(0u64..16, 1..12),
    ) {
        // Child seeds are a pure function of (base, coordinates): deriving
        // them in any order — forward, reverse, interleaved — yields the
        // same per-item seed, which is exactly what makes work-stealing-free
        // chunked execution reorder-safe.
        let coords: Vec<(u64, u64, u64)> = passes
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, (i * 3 % 7) as u64, (i * 5 % 11) as u64))
            .collect();
        let forward: Vec<u64> = coords
            .iter()
            .map(|&(p, m, y)| split_seed(base, stream_id(p, m, y)))
            .collect();
        let mut reversed: Vec<u64> = coords
            .iter()
            .rev()
            .map(|&(p, m, y)| split_seed(base, stream_id(p, m, y)))
            .collect();
        reversed.reverse();
        prop_assert_eq!(&forward, &reversed);
        // And distinct coordinates get distinct generators.
        let unique: std::collections::HashSet<u64> = forward.iter().copied().collect();
        prop_assert_eq!(unique.len(), forward.len());
    }
}

#[test]
fn analog_dot_is_deterministic_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(404);
    let a = Tensor3::random_uniform(1, 1, 200, 0.0, 1.0, &mut rng);
    let w = Tensor3::random_uniform(1, 1, 200, -1.0, 1.0, &mut rng);
    let chip = ChipConfig::albireo_9();
    let serial_engine =
        AnalogEngine::new(&chip, noisy_config(5)).with_parallelism(Parallelism::serial());
    let serial = serial_engine.dot(a.as_slice(), w.as_slice());
    for threads in THREAD_COUNTS {
        let engine = AnalogEngine::new(&chip, noisy_config(5))
            .with_parallelism(Parallelism::with_threads(threads));
        assert_eq!(engine.dot(a.as_slice(), w.as_slice()), serial);
    }
}
