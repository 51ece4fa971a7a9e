//! Baseline accelerators for the Albireo comparison (paper §IV/V).
//!
//! Three classes of baseline:
//!
//! * [`pixel`] — the PIXEL photonic accelerator (paper ref. \[52\]): 8-bit
//!   "OO" optical MAC units at 10 GHz, modelled analytically from the
//!   Albireo paper's description and scaled to the shared 60 W budget with
//!   the same conservative device powers.
//! * [`deap`] — DEAP-CNN (paper ref. \[5\]): MRR weight-bank dot-product
//!   engines at 5 GHz with voltage addition across filter channels
//!   (2034 DACs / 113 TIAs per engine), with the paper's optimistic
//!   assumption that kernels deeper than 113 channels are supported via
//!   multiple passes.
//! * [`electronic`] — Eyeriss, ENVISION, and UNPU, using the reported
//!   numbers the paper itself compares against (Table IV).
//!
//! Every baseline implements the workspace-wide
//! [`Accelerator`] trait and returns the
//! canonical [`NetworkCost`], so the
//! Fig. 8 harness, the CLI `compare` command, and the `albireo-runtime`
//! serving simulator consume them interchangeably with Albireo itself.

pub mod deap;
pub mod electronic;
pub mod pixel;

pub use albireo_core::accel::{Accelerator, LayerCost, NetworkCost};
pub use deap::DeapCnn;
pub use electronic::{reported_accelerators, ReportedAccelerator, ReportedResult};
pub use pixel::Pixel;

#[cfg(test)]
mod tests {
    use super::*;
    use albireo_nn::zoo;

    #[test]
    fn all_baselines_are_trait_objects() {
        let accels: Vec<Box<dyn Accelerator>> =
            vec![Box::new(Pixel::paper_60w()), Box::new(DeapCnn::paper_60w())];
        for model in zoo::all_benchmarks() {
            for a in &accels {
                assert!(a.supports(&model));
                let c = a.cost(&model);
                assert_eq!(c.network, model.name());
                assert!(c.latency_s > 0.0 && c.energy_j > 0.0);
                assert!((c.edp_mj_ms() - c.energy_j * c.latency_s * 1e6).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn trait_costs_match_bespoke_constructors() {
        // The trait path must agree with direct construction — `cost` is the
        // same arithmetic regardless of whether the caller holds a concrete
        // type or a `dyn Accelerator`.
        let vgg = zoo::vgg16();
        let pixel = Pixel::paper_60w();
        let deap = DeapCnn::paper_60w();
        let dyn_pixel: &dyn Accelerator = &pixel;
        let dyn_deap: &dyn Accelerator = &deap;
        assert_eq!(pixel.cost(&vgg), dyn_pixel.cost(&vgg));
        assert_eq!(deap.cost(&vgg), dyn_deap.cost(&vgg));
        assert_eq!(dyn_pixel.cost(&vgg).accelerator, "PIXEL");
        assert_eq!(dyn_deap.cost(&vgg).accelerator, "DEAP-CNN");
    }

    #[test]
    fn reported_accelerators_support_only_their_networks() {
        for acc in reported_accelerators() {
            let a: &dyn Accelerator = &acc;
            assert!(a.supports(&zoo::alexnet()));
            assert!(a.supports(&zoo::vgg16()));
            assert!(!a.supports(&zoo::resnet18()));
            assert!(!a.supports(&zoo::mobilenet()));
        }
    }
}
