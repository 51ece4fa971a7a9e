//! # Albireo
//!
//! A full-system simulator for **Albireo: Energy-Efficient Acceleration of
//! Convolutional Neural Networks via Silicon Photonics** (Shiflett et al.,
//! ISCA 2021).
//!
//! This facade crate re-exports the workspace's crates under one roof:
//!
//! * [`photonics`] — silicon-photonic device physics (MRRs, photodiodes,
//!   noise, crosstalk, precision analysis, and the chip's link budget
//!   over the Table II device losses).
//! * [`tensor`] — a small dense tensor library with reference (digital)
//!   convolution, the golden model for the analog simulator.
//! * [`nn`] — CNN layer descriptors and the model zoo (AlexNet, VGG16,
//!   ResNet18, MobileNet).
//! * [`core`] — the Albireo architecture: PLCU / PLCG / chip models,
//!   dataflow scheduling, power, energy, area, and the functional analog
//!   simulation.
//! * [`baselines`] — the accelerators Albireo is compared against: PIXEL,
//!   DEAP-CNN, and the reported numbers for Eyeriss, ENVISION, and UNPU.
//! * [`modes`] — alternative photonic operating modes behind the same
//!   trait: Winograd F(2×2, 3×3) transform-domain convolution and an
//!   incoherent-MRR weight-stationary GEMM scheduler for dense/attention
//!   workloads.
//! * [`parallel`] — the deterministic parallel execution engine (chunked
//!   thread pool + per-work-item seed splitting) every simulator layer
//!   fans out through.
//! * [`runtime`] — the multi-chip inference-serving simulator: a
//!   deterministic discrete-event engine with seeded arrival processes,
//!   micro-batching, admission control, autoscaling, fault-aware
//!   degradation, and service metrics (latency percentiles, goodput,
//!   energy/request).
//! * [`plan`] — the capacity planner: a deterministic coarse-to-fine
//!   search over candidate fleets (chip mix × batching policy ×
//!   autoscaling), each scored by the serving simulator, that returns
//!   the minimum-energy fleet meeting an SLO plus the full
//!   (energy, attainment) frontier.
//!
//! # Quickstart
//!
//! ```
//! use albireo::core::config::{ChipConfig, TechnologyEstimate};
//! use albireo::core::energy::NetworkEvaluation;
//! use albireo::nn::zoo;
//!
//! let chip = ChipConfig::albireo_9();
//! let eval = NetworkEvaluation::evaluate(
//!     &chip,
//!     TechnologyEstimate::Conservative,
//!     &zoo::vgg16(),
//! );
//! // The paper reports 2.55 ms for VGG16 on Albireo-C; the reproduced
//! // dataflow model lands within ~15%.
//! assert!(eval.latency_s > 1e-3 && eval.latency_s < 5e-3);
//! ```

pub use albireo_baselines as baselines;
pub use albireo_core as core;
pub use albireo_modes as modes;
pub use albireo_nn as nn;
pub use albireo_parallel as parallel;
pub use albireo_photonics as photonics;
pub use albireo_plan as plan;
pub use albireo_runtime as runtime;
pub use albireo_tensor as tensor;
