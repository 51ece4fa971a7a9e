//! Deterministic parallel execution engine for the Albireo simulator.
//!
//! Every evaluation in the paper — the (chip × estimate × network) sweeps
//! behind Tables 1–4 and the per-kernel analog signal-chain simulation —
//! decomposes into independent work items (output kernels, output rows,
//! sweep points). This crate provides the one primitive the rest of the
//! workspace builds on: a *deterministically chunked* parallel map over
//! `0..n`, plus a seed-splitting function so stochastic work items draw
//! from per-item child generators instead of one shared sequential stream.
//!
//! # Determinism contract
//!
//! Results are **bit-identical at any thread count**, including 1, because:
//!
//! * work item `i` always produces slot `i` of the output — placement is
//!   by index, never by completion order;
//! * chunking is static and contiguous (`ceil(n / threads)` items per
//!   worker), so no work stealing and no scheduler-dependent partitioning;
//! * stochastic items never share a generator: [`split_seed`] derives an
//!   independent child seed from `(base_seed, stream_id)`, and the stream
//!   id is a function of the work item's *coordinates* (kernel index,
//!   output row, sweep point), not of which thread runs it.
//!
//! The API is deliberately rayon-shaped (`map_indexed` ≈
//! `(0..n).into_par_iter().map(...).collect()`), so swapping in rayon
//! later is a local change. A registry-free `std::thread::scope` pool is
//! used because the build environment cannot fetch crates.
//!
//! # Observability
//!
//! The wall-clock profiler is the one probe of parallel regions. When it
//! is enabled ([`albireo_obs::profile::set_enabled`]), each region that
//! fans out times its dispatch+join on the caller (`parallel.join`) and
//! each worker band on its own thread (`parallel.chunk`); a region that
//! runs serially records neither. Both are excluded from every
//! determinism digest.

use albireo_obs::profile;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sentinel meaning "one thread per available core".
const AUTO: usize = 0;

/// Process-wide default thread count; [`AUTO`] until overridden.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(AUTO);

/// Parallel execution policy: how many threads a parallel region may use.
///
/// `Copy` so it threads through the simulator's config structs the same
/// way `ChipConfig` does. The zero value means "auto" (all cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Requested worker count; 0 = one per available core.
    threads: usize,
}

impl Default for Parallelism {
    /// The process-wide default set via [`Parallelism::set_global`]
    /// (auto, i.e. all cores, unless overridden).
    fn default() -> Parallelism {
        Parallelism::global()
    }
}

impl Parallelism {
    /// Single-threaded execution.
    pub fn serial() -> Parallelism {
        Parallelism { threads: 1 }
    }

    /// One thread per available core.
    pub fn auto() -> Parallelism {
        Parallelism { threads: AUTO }
    }

    /// Exactly `threads` workers; 0 means auto.
    pub fn with_threads(threads: usize) -> Parallelism {
        Parallelism { threads }
    }

    /// The process-wide default used by `Parallelism::default()`.
    pub fn global() -> Parallelism {
        Parallelism {
            threads: GLOBAL_THREADS.load(Ordering::Relaxed),
        }
    }

    /// Sets the process-wide default (e.g. from a `--threads N` CLI flag).
    pub fn set_global(par: Parallelism) {
        GLOBAL_THREADS.store(par.threads, Ordering::Relaxed);
    }

    /// The worker count this policy resolves to on this host.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == AUTO {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Runs `f(i)` for every `i in 0..n` and collects the results in
    /// index order. Deterministic: identical output for any thread count.
    /// This is [`fill_slices`](Parallelism::fill_slices) over one-slot
    /// items.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        self.fill_slices(&mut out, 1, |i, slot| slot[0] = Some(f(i)));
        out.into_iter()
            .map(|slot| slot.expect("worker filled every slot"))
            .collect()
    }

    /// Splits `data` into `n = data.len() / item_len` equal items and runs
    /// `f(i, item_slice)` for each, in parallel. The caller's buffer is
    /// written in place; item `i` always owns
    /// `data[i * item_len .. (i + 1) * item_len]`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `item_len`.
    pub fn fill_slices<T, F>(&self, data: &mut [T], item_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(item_len > 0, "item_len must be positive");
        assert_eq!(
            data.len() % item_len,
            0,
            "data length {} is not a multiple of item length {}",
            data.len(),
            item_len
        );
        let n = data.len() / item_len;
        let workers = self.resolved_threads().min(n.max(1));
        if workers <= 1 || n <= 1 {
            for (i, item) in data.chunks_mut(item_len).enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = n.div_ceil(workers);
        // Caller-side: dispatch + join wait; worker-side: each band is
        // its own wall-clock profile root (concurrent time must not
        // nest under the caller, which already measures the join).
        let _join = profile::scope("parallel.join");
        std::thread::scope(|scope| {
            for (w, band) in data.chunks_mut(chunk * item_len).enumerate() {
                let f = &f;
                scope.spawn(move || {
                    let _chunk = profile::scope("parallel.chunk");
                    let base = w * chunk;
                    for (j, item) in band.chunks_mut(item_len).enumerate() {
                        f(base + j, item);
                    }
                });
            }
        });
    }
}

/// Derives an independent child seed from a base seed and a stream id.
///
/// This is the per-work-item seed-splitting scheme the determinism
/// guarantee rests on: each stochastic work item (analog kernel × output
/// row, property-test case, …) seeds its own generator with
/// `split_seed(base, stream)` where `stream` encodes the item's logical
/// coordinates. Two SplitMix64 output mixes keep child streams decorrelated
/// even for adjacent `(base, stream)` pairs; the function is pure, so the
/// derivation is trivially stable under work reordering.
pub fn split_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    // Second round so that stream ids differing in one low bit do not
    // yield detectably similar children.
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Packs up-to-three work-item coordinates into one stream id.
///
/// Layout: `pass` in bits 48..64, `major` in bits 24..48, `minor` in
/// bits 0..24 — wide enough for any layer shape in the model zoo while
/// keeping distinct coordinates at distinct ids.
pub fn stream_id(pass: u64, major: u64, minor: u64) -> u64 {
    debug_assert!(pass < (1 << 16), "pass id overflows its field");
    debug_assert!(major < (1 << 24), "major id overflows its field");
    debug_assert!(minor < (1 << 24), "minor id overflows its field");
    (pass << 48) | (major << 24) | minor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_matches_serial_for_all_thread_counts() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
        let serial: Vec<u64> = (0..97).map(f).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = Parallelism::with_threads(threads);
            assert_eq!(par.map_indexed(97, f), serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_indexed_handles_degenerate_sizes() {
        let par = Parallelism::with_threads(8);
        assert_eq!(par.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par.map_indexed(1, |i| i * 3), vec![0]);
        assert_eq!(par.map_indexed(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn fill_slices_places_items_by_index() {
        let item_len = 5;
        let n = 13;
        let f = |i: usize, item: &mut [u64]| {
            for (j, v) in item.iter_mut().enumerate() {
                *v = split_seed(i as u64, j as u64);
            }
        };
        let mut serial = vec![0u64; n * item_len];
        Parallelism::serial().fill_slices(&mut serial, item_len, f);
        for threads in [2, 3, 8] {
            let mut par = vec![0u64; n * item_len];
            Parallelism::with_threads(threads).fill_slices(&mut par, item_len, f);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn fill_slices_rejects_ragged_buffers() {
        let mut data = vec![0u8; 7];
        Parallelism::serial().fill_slices(&mut data, 3, |_, _| {});
    }

    #[test]
    fn split_seed_is_pure_and_collision_resistant() {
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for stream in 0..256u64 {
                assert!(seen.insert(split_seed(base, stream)));
            }
        }
    }

    #[test]
    fn stream_id_fields_do_not_alias() {
        let mut seen = std::collections::HashSet::new();
        for pass in 0..4u64 {
            for major in 0..16u64 {
                for minor in 0..16u64 {
                    assert!(seen.insert(stream_id(pass, major, minor)));
                }
            }
        }
    }

    #[test]
    fn resolved_threads_and_global_default() {
        assert_eq!(Parallelism::serial().resolved_threads(), 1);
        assert_eq!(Parallelism::with_threads(4).resolved_threads(), 4);
        assert!(Parallelism::auto().resolved_threads() >= 1);
    }
}
