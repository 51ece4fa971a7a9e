//! The parallel evaluation engine: deterministic fan-out of the paper's
//! evaluation grid.
//!
//! Every result table in the paper is a sweep over
//! (chip × technology estimate × network); this module turns that grid
//! into independent work items executed under a [`Parallelism`] policy.
//! All grid arithmetic is deterministic (no RNG), so parallel evaluation
//! is trivially bit-identical to serial; the analog simulation reached
//! through [`crate::analog::AnalogEngine`] keeps the same guarantee via
//! per-work-item seed splitting (see `albireo-parallel`).
//!
//! The grid is the only fan-out: each grid point's per-layer scheduling
//! is a plain serial loop inside its work item.

use crate::config::{ChipConfig, TechnologyEstimate};
use crate::energy::NetworkEvaluation;
use albireo_nn::Model;
use albireo_parallel::Parallelism;

/// One (chip × estimate × network) grid point's result.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResult {
    /// Chip label (e.g. `"albireo_9"`).
    pub chip_name: String,
    /// Technology estimate used.
    pub estimate: TechnologyEstimate,
    /// The full network evaluation.
    pub evaluation: NetworkEvaluation,
}

/// Evaluates the full (chip × estimate × network) grid, fanning the grid
/// points across threads under `par`. Results are returned in grid order
/// (chips outermost, networks innermost) regardless of thread count.
pub fn evaluate_grid(
    chips: &[(String, ChipConfig)],
    estimates: &[TechnologyEstimate],
    models: &[Model],
    par: Parallelism,
) -> Vec<GridResult> {
    let n = chips.len() * estimates.len() * models.len();
    par.map_indexed(n, |i| {
        let per_chip = estimates.len() * models.len();
        let (ci, rest) = (i / per_chip, i % per_chip);
        let (ei, mi) = (rest / models.len(), rest % models.len());
        let (name, chip) = &chips[ci];
        GridResult {
            chip_name: name.clone(),
            estimate: estimates[ei],
            evaluation: NetworkEvaluation::evaluate(chip, estimates[ei], &models[mi]),
        }
    })
}

/// The paper's standard grid: both chips, all three estimates, all four
/// benchmark networks (Tables II/IV).
pub fn paper_grid() -> (
    Vec<(String, ChipConfig)>,
    Vec<TechnologyEstimate>,
    Vec<Model>,
) {
    let chips = vec![
        ("albireo_9".to_string(), ChipConfig::albireo_9()),
        ("albireo_27".to_string(), ChipConfig::albireo_27()),
    ];
    let estimates = vec![
        TechnologyEstimate::Conservative,
        TechnologyEstimate::Moderate,
        TechnologyEstimate::Aggressive,
    ];
    let models = albireo_nn::zoo::all_benchmarks();
    (chips, estimates, models)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_stable_across_thread_counts() {
        let (chips, estimates, models) = paper_grid();
        let serial = evaluate_grid(&chips, &estimates, &models, Parallelism::serial());
        assert_eq!(serial.len(), 2 * 3 * 4);
        for threads in [2, 8] {
            let par = evaluate_grid(
                &chips,
                &estimates,
                &models,
                Parallelism::with_threads(threads),
            );
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn grid_layout_matches_indexing() {
        let (chips, estimates, models) = paper_grid();
        let grid = evaluate_grid(&chips, &estimates, &models, Parallelism::default());
        // Chips outermost: first half is albireo_9, second albireo_27.
        assert!(grid[..12].iter().all(|g| g.chip_name == "albireo_9"));
        assert!(grid[12..].iter().all(|g| g.chip_name == "albireo_27"));
        // Networks innermost: the model cycle repeats every 4 entries.
        let names: Vec<&str> = grid[..4]
            .iter()
            .map(|g| g.evaluation.network.as_str())
            .collect();
        assert_eq!(names.len(), 4);
        for chunk in grid.chunks(4) {
            let chunk_names: Vec<&str> = chunk
                .iter()
                .map(|g| g.evaluation.network.as_str())
                .collect();
            assert_eq!(chunk_names, names);
        }
    }
}
