//! `albireo-runtime` — a deterministic multi-chip inference-serving
//! simulator on top of the Albireo performance models.
//!
//! The rest of the workspace answers "how fast is one inference on one
//! chip?" (Tables II/IV, the device sweeps). This crate answers the
//! *serving* question: what latency distribution, goodput, shed rate, and
//! energy-per-request does a small fleet of accelerators deliver under a
//! stochastic request stream — and how gracefully does service degrade
//! when chips or individual compute groups fail mid-run?
//!
//! Fleets are heterogeneous: every chip is a `dyn
//! albireo_core::accel::Accelerator`, so Albireo designs, the photonic
//! baselines (PIXEL, DEAP-CNN), and the reported electronic accelerators
//! (Eyeriss, ENVISION, UNPU) can serve side by side — e.g.
//! [`FleetConfig::parse`]`("albireo_27:A, deap:M, eyeriss", ..)`.
//!
//! Pieces:
//!
//! * [`workload`] — seeded arrival processes (Poisson, bursty, diurnal,
//!   flash-crowd, JSONL trace replay), the request mix,
//!   and multi-tenant request classes with per-class SLO targets; all
//!   streamed lazily with O(1) generator state;
//! * [`queue`] — the packed `(time, class, sequence)` event key, and the
//!   entry type of the engine's `std` `BinaryHeap` of pending events;
//! * [`fleet`] — chip specs, the fleet, and the
//!   [`fleet::ServiceOracle`]: dispatch tables (each chip's compute
//!   groups and supported networks, read once per run) plus memoized
//!   `(chip, active groups, network)` latency/energy through the
//!   `Accelerator` trait;
//! * [`policy`] — micro-batching policies and admission control;
//! * [`grammar`] — the shared lexer every spec grammar (fleet, policy,
//!   autoscale, fault, class, arrival) reads its fields through, with
//!   one error format;
//! * [`autoscale`] — fleet provisioning: static idle-power accounting
//!   and queue-depth-driven elastic spin-up/park with warm-up latency;
//! * [`alerts`] — deterministic multi-window SLO burn-rate alerting on
//!   the virtual clock (fire/resolve transitions in the serving report
//!   and the `--report-jsonl` stream);
//! * [`fault`] — timed chip/PLCG fault scenarios, correlated-failure
//!   specs ([`fault::FaultSpec`]: rack groups, thermal epochs, repair
//!   crews), and classification of analog fault sets;
//! * [`sim`] — the discrete-event engine ([`sim::simulate`], plus
//!   [`sim::simulate_observed`] recording spans/metrics into an
//!   `albireo_obs::Obs` on the virtual clock,
//!   [`sim::simulate_replay`] over a pre-generated arrival list, and
//!   [`sim::simulate_checkpointed`] / [`sim::resume_checkpointed`] for
//!   interruptible runs);
//! * [`snapshot`] — the checkpoint callback's view of a run and the
//!   versioned, self-digesting checkpoint record
//!   (`albireo.snapshot/v3`) that resume replays the run to;
//! * [`report`] — service metrics, text/CSV/JSON renderings, digests;
//! * [`study`] — the replicated (fleet × rate × policy) sweep, fanned
//!   deterministically through `albireo-parallel`.
//!
//! # Determinism contract
//!
//! A run is a pure function of `(fleet, config)`: the event queue's
//! ordering is total (time bits, event class, insertion sequence), every
//! random draw comes from seeds derived with `albireo_parallel::split_seed`
//! from the run's coordinates, and individual runs are single-threaded.
//! Replica and sweep fan-out go through `Parallelism::map_indexed`, so
//! study results — and their digests — are bit-identical at any thread
//! count. DESIGN.md §8 states the full contract.

pub mod alerts;
pub mod autoscale;
pub mod fault;
pub mod fleet;
pub mod grammar;
pub mod policy;
pub mod queue;
pub mod report;
pub mod sim;
pub mod snapshot;
pub mod study;
pub mod workload;

pub use alerts::{AlertEvent, AlertPolicy, AlertRule, BurnRule};
pub use autoscale::AutoscalePolicy;
pub use fault::{FaultEvent, FaultKind, FaultScenario, FaultSpec};
pub use fleet::{ChipSpec, FleetConfig, ServiceCost, ServiceOracle};
pub use policy::{AdmissionControl, BatchPolicy};
pub use queue::EventKey;
pub use report::{ChipReport, ClassReport, RequestRecord, ServiceReport};
pub use sim::{
    resume_checkpointed, simulate, simulate_checkpointed, simulate_observed, simulate_replay,
    trace_track_names, ServeConfig, ServeOutcome,
};
pub use snapshot::{Checkpoint, SimSnapshot, SNAPSHOT_SCHEMA};
pub use study::{
    replicate, run_full_serving_study, run_serving_study, ServingStudyReport, StudyOptions,
    StudyRun,
};
pub use workload::{ArrivalProcess, ClassSpec, Request, RequestStream, Workload};
