//! The service side of the simulator: a fleet of accelerators plus the
//! per-request service-time oracle.
//!
//! Service times and energies are *not* invented here — they come from
//! the unified [`Accelerator`] cost models: each fleet chip is an
//! `Arc<dyn Accelerator>` (Albireo under any estimate, the photonic
//! PIXEL / DEAP-CNN baselines, or a reported electronic design), and the
//! oracle consumes the [`NetworkCost`](albireo_core::accel::NetworkCost)
//! it returns. The one serving-specific term is the **batch setup time**
//! the cost model reports: weight-stationary designs (Albireo, DEAP-CNN)
//! reprogram their weight DACs once per inference, so consecutive
//! same-network inferences in a micro-batch share one weight-programming
//! pass — ~31% of AlexNet's inference latency on Albireo-9, ~3% of
//! VGG16's, which is exactly why batching pays on small networks.

use crate::grammar::Lexer;
use albireo_baselines::{reported_accelerators, DeapCnn, Pixel};
use albireo_core::accel::{Accelerator, AlbireoAccelerator};
use albireo_core::config::{ChipConfig, TechnologyEstimate};
use albireo_modes::{GemmMode, WinogradAccelerator};
use albireo_nn::{zoo, Model};
use std::fmt;
use std::sync::Arc;

/// The shared power budget (W) the photonic baselines are built to in the
/// paper's comparison (§IV-A), reused when a fleet spec names one.
pub const BASELINE_BUDGET_W: f64 = 60.0;

/// One chip in the fleet: a display name plus the accelerator cost model
/// behind it.
#[derive(Clone)]
pub struct ChipSpec {
    /// Display name (e.g. `albireo_9`, `deap_M`).
    pub name: String,
    /// The cost model serving this slot.
    pub accel: Arc<dyn Accelerator>,
}

impl fmt::Debug for ChipSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChipSpec")
            .field("name", &self.name)
            .field("compute_groups", &self.accel.compute_groups())
            .finish()
    }
}

/// Chip specs are compared by name: fleet parsing derives the name from
/// the full `(chip, estimate)` coordinate, so equal names mean equal
/// configurations everywhere a fleet can come from.
impl PartialEq for ChipSpec {
    fn eq(&self, other: &ChipSpec) -> bool {
        self.name == other.name
    }
}

impl ChipSpec {
    /// The paper's 9-PLCG chip under an estimate.
    pub fn albireo_9(estimate: TechnologyEstimate) -> ChipSpec {
        ChipSpec {
            name: "albireo_9".to_string(),
            accel: Arc::new(AlbireoAccelerator::albireo_9(estimate)),
        }
    }

    /// The paper's 27-PLCG chip under an estimate.
    pub fn albireo_27(estimate: TechnologyEstimate) -> ChipSpec {
        ChipSpec {
            name: "albireo_27".to_string(),
            accel: Arc::new(AlbireoAccelerator::albireo_27(estimate)),
        }
    }
}

/// The fleet: chips plus the model table network indices refer to.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The chips, in dispatch-preference order (ties in availability go to
    /// the lowest index).
    pub chips: Vec<ChipSpec>,
    /// The networks served, indexed by
    /// [`Request::network`](crate::workload::Request::network).
    pub models: Vec<Model>,
}

impl FleetConfig {
    /// The acceptance-scenario fleet: one Albireo-9 and one Albireo-27
    /// under the conservative estimate, serving the four benchmark
    /// networks.
    pub fn paper_pair() -> FleetConfig {
        FleetConfig {
            chips: vec![
                ChipSpec::albireo_9(TechnologyEstimate::Conservative),
                ChipSpec::albireo_27(TechnologyEstimate::Conservative),
            ],
            models: zoo::all_benchmarks(),
        }
    }

    /// Parses a fleet spec like `albireo_9:C, deap:M, eyeriss`. Each entry
    /// is `<chip>[:<estimate>]` with chip one of
    ///
    /// * `albireo_9`, `albireo_27`, `ng<N>` — Albireo chips;
    /// * `winograd_9` (alias `winograd`), `winograd_27` — the same
    ///   silicon running the Winograd F(2×2, 3×3) transform-domain
    ///   conv dataflow;
    /// * `gemm_9` (alias `gemm`), `gemm_27` — the incoherent-MRR GEMM
    ///   mode (dense/pointwise layers only; conv trunks are routed to
    ///   other chips by support-aware dispatch);
    /// * `pixel`, `deap` — the photonic baselines at the shared 60 W
    ///   budget built from the estimate's device powers;
    /// * `eyeriss`, `envision`, `unpu` — reported electronic designs
    ///   (these take no estimate: their numbers are published, not
    ///   modelled).
    ///
    /// Estimate ∈ {C, M, A} (default C). Entries that accept an estimate
    /// are named `<chip>_<suffix>` (e.g. `deap_M`); electronic entries
    /// keep their bare name.
    ///
    /// An entry may carry an explicit alias, `<alias>=<chip>[:<estimate>]`
    /// (e.g. `edge=albireo_9:C`), which replaces the derived name in
    /// labels and reports. Aliases must be unique across the fleet —
    /// a duplicate alias is a spec error, never last-one-wins — while
    /// *unaliased* duplicate entries stay legal (two `albireo_9:C`
    /// entries are simply a two-chip fleet).
    pub fn parse(spec: &str, models: Vec<Model>) -> Result<FleetConfig, String> {
        let mut list = Lexer::new("fleet", spec, ',');
        let mut chips: Vec<ChipSpec> = Vec::new();
        let mut aliases: Vec<&str> = Vec::new();
        while let Some(entry) = list.next() {
            if entry.is_empty() {
                continue;
            }
            let mut lx = list.split(entry, ':');
            let alias = lx.prefix('=');
            if let Some(a) = alias {
                let valid = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
                if a.is_empty() || !a.chars().all(valid) {
                    return Err(list.expected(a, "chip alias of [A-Za-z0-9_-]"));
                }
            }
            let chip_name = lx.token("chip kind")?;
            let tag = lx.next();
            lx.end()?;
            let estimate: TechnologyEstimate = match tag {
                Some(tag) => lx.parse(tag, "estimate C, M or A")?,
                None => TechnologyEstimate::Conservative,
            };
            let lower = chip_name.to_ascii_lowercase();
            let electronic = matches!(lower.as_str(), "eyeriss" | "envision" | "unpu");
            if let (true, Some(tag)) = (electronic, tag) {
                let why =
                    format_args!("`{chip_name}` uses reported numbers and takes no estimate tag");
                return Err(list.reject(tag, why));
            }
            let albireo = |cfg: ChipConfig| -> Arc<dyn Accelerator> {
                Arc::new(AlbireoAccelerator::new(chip_name, cfg, estimate))
            };
            let winograd = |cfg: ChipConfig| -> Arc<dyn Accelerator> {
                Arc::new(WinogradAccelerator::new(chip_name, cfg, estimate))
            };
            let gemm = |cfg: ChipConfig| -> Arc<dyn Accelerator> {
                Arc::new(GemmMode::new(chip_name, cfg, estimate))
            };
            let (nine, twenty_seven) = (ChipConfig::albireo_9(), ChipConfig::albireo_27());
            let accel: Arc<dyn Accelerator> = match lower.as_str() {
                "albireo_9" | "albireo9" => albireo(nine),
                "albireo_27" | "albireo27" => albireo(twenty_seven),
                "winograd" | "winograd_9" | "winograd9" => winograd(nine),
                "winograd_27" | "winograd27" => winograd(twenty_seven),
                "gemm" | "gemm_9" | "gemm9" => gemm(nine),
                "gemm_27" | "gemm27" => gemm(twenty_seven),
                "pixel" => Arc::new(Pixel::scaled_to_power(BASELINE_BUDGET_W, estimate)),
                "deap" | "deap-cnn" | "deapcnn" => {
                    Arc::new(DeapCnn::scaled_to_power(BASELINE_BUDGET_W, estimate))
                }
                _ if electronic => Arc::new(
                    reported_accelerators()
                        .into_iter()
                        .find(|a| a.name.eq_ignore_ascii_case(chip_name))
                        .expect("reported accelerator exists"),
                ),
                ng if ng.starts_with("ng") => {
                    let ok = |n: &usize| *n >= 1;
                    albireo(ChipConfig::with_ng(lx.parse_where(
                        &chip_name[2..],
                        "PLCG count >= 1",
                        ok,
                    )?))
                }
                _ => {
                    return Err(list.expected(
                        chip_name,
                        "chip kind (albireo_9, albireo_27, winograd[_9|_27], gemm[_9|_27], \
                         pixel, deap, ng<N>, eyeriss, envision, unpu)",
                    ))
                }
            };
            // Estimate-taking chips are named by their full coordinate;
            // reported-number chips keep their bare name.
            let name = match alias {
                Some(alias) => {
                    aliases.push(alias);
                    alias.to_string()
                }
                None if electronic => lower,
                None => format!("{chip_name}_{}", estimate.suffix()),
            };
            chips.push(ChipSpec { name, accel });
        }
        if chips.is_empty() {
            return Err(list.missing("at least one chip"));
        }
        for alias in aliases {
            if chips.iter().filter(|c| c.name == alias).count() > 1 {
                return Err(list.reject(
                    alias,
                    format_args!(
                        "duplicate chip alias `{alias}` in fleet spec (aliases must be unique)"
                    ),
                ));
            }
        }
        Ok(FleetConfig { chips, models })
    }

    /// A compact label for reports, e.g. `albireo_9_C+albireo_27_C`.
    pub fn label(&self) -> String {
        self.chips
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<&str>>()
            .join("+")
    }

    /// Whether at least one chip in the fleet can run `model`.
    pub fn supports(&self, model: &Model) -> bool {
        self.chips.iter().any(|c| c.accel.supports(model))
    }
}

impl fmt::Display for FleetConfig {
    /// One human-oriented line — chip roster plus model table — for CLI
    /// diagnostics (`{:?}` stays the exhaustive derive for debugging).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chip(s) [{}] serving {} network(s) [{}]",
            self.chips.len(),
            self.label(),
            self.models.len(),
            self.models
                .iter()
                .map(Model::name)
                .collect::<Vec<&str>>()
                .join(", "),
        )
    }
}

/// The per-dispatch cost of serving one micro-batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCost {
    /// Latency of one inference, s.
    pub item_latency_s: f64,
    /// One-time weight-programming setup per batch, s.
    pub batch_setup_s: f64,
    /// Energy of one inference, J.
    pub item_energy_j: f64,
    /// Energy of the setup pass (chip power × setup time), J.
    pub batch_setup_energy_j: f64,
}

impl ServiceCost {
    /// Busy time of a batch of `n` requests, s.
    pub fn batch_latency_s(&self, n: usize) -> f64 {
        self.batch_setup_s + n as f64 * self.item_latency_s
    }

    /// Energy of a batch of `n` requests, J.
    pub fn batch_energy_j(&self, n: usize) -> f64 {
        self.batch_setup_energy_j + n as f64 * self.item_energy_j
    }
}

/// The fleet's dispatch tables plus a memoizing service-time oracle over
/// `(chip, active groups, network)`.
///
/// Degradation enters through the accelerator's compute-group count: an
/// Albireo chip with `k` of its PLCGs retired serves from a `ChipConfig`
/// with `ng − k` groups (so the scheduler's `⌈Wm/Ng⌉` kernel-distribution
/// term — and hence latency, power, and energy — degrade exactly as the
/// dataflow model says they should), and a PIXEL/DEAP-CNN baseline serves
/// from the surviving unit/engine count. There is no ad-hoc slowdown
/// factor anywhere.
///
/// Every answer is a pure function of the fleet, read from the cost
/// models once: each chip's compute-group count and which networks it
/// supports at construction, each cost on first request. Costs sit in
/// one row per `(chip, network)`, indexed by the groups the chip has
/// lost, so a lookup is two indexings and a healthy chip's cost leads
/// its row.
#[derive(Debug)]
pub struct ServiceOracle {
    /// Networks in the fleet's model table: the row stride.
    networks: usize,
    /// Each chip's full compute-group count.
    groups: Vec<usize>,
    /// `supports[chip · networks + network]`.
    supports: Vec<bool>,
    /// `costs[chip · networks + network][groups lost]`, filled on demand.
    costs: Vec<Vec<Option<ServiceCost>>>,
}

impl ServiceOracle {
    /// The tables for `fleet`, with no cost computed yet.
    pub fn new(fleet: &FleetConfig) -> ServiceOracle {
        let networks = fleet.models.len();
        ServiceOracle {
            networks,
            groups: fleet
                .chips
                .iter()
                .map(|c| c.accel.compute_groups())
                .collect(),
            supports: fleet
                .chips
                .iter()
                .flat_map(|c| fleet.models.iter().map(|m| c.accel.supports(m)))
                .collect(),
            costs: vec![Vec::new(); fleet.chips.len() * networks],
        }
    }

    /// Compute groups of fleet chip `chip` when fully healthy.
    pub(crate) fn compute_groups(&self, chip: usize) -> usize {
        self.groups[chip]
    }

    /// Whether fleet chip `chip` can serve `models[network]`.
    pub(crate) fn supports(&self, chip: usize, network: usize) -> bool {
        self.supports[chip * self.networks + network]
    }

    /// The cost of serving `models[network]` on fleet chip `chip_idx`
    /// with `groups_active` healthy compute groups. `fleet` must be the
    /// fleet the oracle was built for.
    pub fn cost(
        &mut self,
        fleet: &FleetConfig,
        chip_idx: usize,
        groups_active: usize,
        network: usize,
    ) -> ServiceCost {
        assert!(
            groups_active > 0,
            "a chip with zero compute groups cannot serve"
        );
        let lost = self.groups[chip_idx]
            .checked_sub(groups_active)
            .expect("active groups exceed the chip's compute groups");
        let row = &mut self.costs[chip_idx * self.networks + network];
        if let Some(Some(cost)) = row.get(lost) {
            return *cost;
        }
        let cost = fleet.chips[chip_idx]
            .accel
            .cost_with_groups(&fleet.models[network], groups_active);
        let cost = ServiceCost {
            item_latency_s: cost.latency_s,
            batch_setup_s: cost.setup_s,
            item_energy_j: cost.energy_j,
            batch_setup_energy_j: cost.setup_energy_j,
        };
        if row.len() <= lost {
            row.resize(lost + 1, None);
        }
        row[lost] = Some(cost);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albireo_core::energy::NetworkEvaluation;

    #[test]
    fn paper_pair_has_two_chips_and_four_networks() {
        let fleet = FleetConfig::paper_pair();
        assert_eq!(fleet.chips.len(), 2);
        assert_eq!(fleet.models.len(), 4);
        assert_eq!(fleet.label(), "albireo_9+albireo_27");
    }

    #[test]
    fn parse_fleet_specs() {
        let fleet = FleetConfig::parse("albireo_9:C, albireo_27:A", zoo::all_benchmarks()).unwrap();
        assert_eq!(fleet.chips.len(), 2);
        assert_eq!(fleet.chips[0].name, "albireo_9_C");
        assert_eq!(fleet.chips[1].name, "albireo_27_A");
        assert_eq!(fleet.chips[1].accel.compute_groups(), 27);
        let custom = FleetConfig::parse("ng18:M", zoo::all_benchmarks()).unwrap();
        assert_eq!(custom.chips[0].accel.compute_groups(), 18);
        assert!(FleetConfig::parse("", zoo::all_benchmarks()).is_err());
        assert!(FleetConfig::parse("albireo_9:X", zoo::all_benchmarks()).is_err());
        assert!(FleetConfig::parse("ng0", zoo::all_benchmarks()).is_err());
        assert!(FleetConfig::parse("tpu", zoo::all_benchmarks()).is_err());
    }

    #[test]
    fn parse_aliases_rename_chips_and_must_be_unique() {
        let fleet = FleetConfig::parse(
            "edge=albireo_9:C, bulk=albireo_27:C, albireo_9:C",
            zoo::all_benchmarks(),
        )
        .unwrap();
        assert_eq!(fleet.chips[0].name, "edge");
        assert_eq!(fleet.chips[1].name, "bulk");
        assert_eq!(fleet.chips[2].name, "albireo_9_C");
        assert_eq!(fleet.label(), "edge+bulk+albireo_9_C");

        // Duplicate aliases are a typed error, never last-one-wins.
        let err =
            FleetConfig::parse("a=albireo_9, a=albireo_27", zoo::all_benchmarks()).unwrap_err();
        assert!(
            err.contains("duplicate chip alias `a`"),
            "unexpected message: {err}"
        );
        // An alias shadowing a derived name is the same error.
        let err = FleetConfig::parse(
            "albireo_9_C=albireo_27:C, albireo_9:C",
            zoo::all_benchmarks(),
        )
        .unwrap_err();
        assert!(err.contains("duplicate chip alias `albireo_9_C`"));
        // Unaliased duplicates stay legal: that is just an n-chip fleet.
        let twins = FleetConfig::parse("albireo_9:C, albireo_9:C", zoo::all_benchmarks()).unwrap();
        assert_eq!(twins.chips.len(), 2);
        // Malformed aliases are rejected.
        assert!(FleetConfig::parse("=albireo_9", zoo::all_benchmarks()).is_err());
        assert!(FleetConfig::parse("a b=albireo_9", zoo::all_benchmarks()).is_err());
    }

    #[test]
    fn parse_mixed_photonic_electronic_fleet() {
        let fleet = FleetConfig::parse(
            "albireo_27:A, pixel, deap:M, eyeriss, unpu",
            zoo::all_benchmarks(),
        )
        .unwrap();
        assert_eq!(fleet.chips.len(), 5);
        assert_eq!(fleet.chips[1].name, "pixel_C");
        assert_eq!(fleet.chips[2].name, "deap_M");
        assert_eq!(fleet.chips[3].name, "eyeriss");
        assert_eq!(fleet.label(), "albireo_27_A+pixel_C+deap_M+eyeriss+unpu");
        // PIXEL at 60 W has hundreds of units; eyeriss is monolithic.
        assert!(fleet.chips[1].accel.compute_groups() > 100);
        assert_eq!(fleet.chips[3].accel.compute_groups(), 1);
        // Electronic baselines only support their reported networks.
        assert!(fleet.chips[3].accel.supports(&zoo::vgg16()));
        assert!(!fleet.chips[3].accel.supports(&zoo::mobilenet()));
        assert!(fleet.supports(&zoo::mobilenet()), "albireo covers the rest");
        // Estimate tags are meaningless for reported numbers.
        assert!(FleetConfig::parse("eyeriss:A", zoo::all_benchmarks()).is_err());
    }

    #[test]
    fn parse_operating_mode_fleet() {
        let fleet = FleetConfig::parse("albireo_9:C, winograd_27:A, gemm:M", zoo::serving_models())
            .unwrap();
        assert_eq!(fleet.chips.len(), 3);
        assert_eq!(fleet.chips[1].name, "winograd_27_A");
        assert_eq!(fleet.chips[1].accel.compute_groups(), 27);
        assert_eq!(fleet.chips[2].name, "gemm_M");
        // GEMM chips reject conv trunks; support-aware dispatch covers
        // them via the direct/Winograd chips.
        assert!(!fleet.chips[2].accel.supports(&zoo::vgg16()));
        assert!(fleet.chips[2].accel.supports(&zoo::mlp_mixer()));
        assert!(fleet.supports(&zoo::vgg16()));
        assert!(fleet.supports(&zoo::mlp_mixer()));
        // A gemm-only fleet cannot serve a CNN at all.
        let dense_only = FleetConfig::parse("gemm_9, gemm_27:A", zoo::serving_models()).unwrap();
        assert!(!dense_only.supports(&zoo::alexnet()));
        assert!(dense_only.supports(&zoo::transformer_encoder_block()));
    }

    #[test]
    fn winograd_fleet_chip_is_faster_on_vgg16() {
        let fleet = FleetConfig::parse("albireo_9:C, winograd_9:C", zoo::serving_models()).unwrap();
        let mut oracle = ServiceOracle::new(&fleet);
        let direct = oracle.cost(&fleet, 0, 9, 1);
        let wino = oracle.cost(&fleet, 1, 9, 1);
        assert!(wino.item_latency_s < direct.item_latency_s);
        assert!(wino.item_energy_j < direct.item_energy_j);
    }

    #[test]
    fn oracle_matches_direct_evaluation() {
        let fleet = FleetConfig::paper_pair();
        let mut oracle = ServiceOracle::new(&fleet);
        let cost = oracle.cost(&fleet, 0, 9, 0);
        let eval = NetworkEvaluation::evaluate(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            &fleet.models[0],
        );
        assert_eq!(cost.item_latency_s, eval.latency_s);
        assert_eq!(cost.item_energy_j, eval.energy_j);
        assert!(cost.batch_setup_s > 0.0 && cost.batch_setup_energy_j > 0.0);
    }

    #[test]
    fn oracle_costs_baseline_chips_through_the_trait() {
        let fleet = FleetConfig::parse("deap:C, pixel:C", zoo::all_benchmarks()).unwrap();
        let mut oracle = ServiceOracle::new(&fleet);
        let deap = oracle.cost(&fleet, 0, fleet.chips[0].accel.compute_groups(), 1);
        let direct = DeapCnn::paper_60w().cost(&fleet.models[1]);
        assert_eq!(deap.item_latency_s, direct.latency_s);
        assert_eq!(deap.item_energy_j, direct.energy_j);
        assert_eq!(deap.batch_setup_s, direct.setup_s);
        let pixel = oracle.cost(&fleet, 1, fleet.chips[1].accel.compute_groups(), 1);
        assert_eq!(pixel.batch_setup_s, 0.0, "PIXEL streams weights");
        assert!(pixel.item_latency_s > deap.item_latency_s);
    }

    #[test]
    fn degraded_chip_is_slower() {
        let fleet = FleetConfig::paper_pair();
        let mut oracle = ServiceOracle::new(&fleet);
        let healthy = oracle.cost(&fleet, 0, 9, 1);
        let degraded = oracle.cost(&fleet, 0, 5, 1);
        assert!(degraded.item_latency_s > healthy.item_latency_s);
    }

    #[test]
    fn setup_amortization_favours_small_networks() {
        // AlexNet (61M params, 0.13 ms) must have a much larger
        // setup/latency ratio than VGG16 (138M params, 2.88 ms).
        let fleet = FleetConfig::paper_pair();
        let mut oracle = ServiceOracle::new(&fleet);
        let alex = oracle.cost(&fleet, 0, 9, 0);
        let vgg = oracle.cost(&fleet, 0, 9, 1);
        let (a_ratio, v_ratio) = (
            alex.batch_setup_s / alex.item_latency_s,
            vgg.batch_setup_s / vgg.item_latency_s,
        );
        assert!(a_ratio > 4.0 * v_ratio, "{a_ratio} vs {v_ratio}");
        assert!(a_ratio > 0.1, "AlexNet setup should be material: {a_ratio}");
    }

    #[test]
    fn batch_costs_scale_linearly_past_setup() {
        let fleet = FleetConfig::paper_pair();
        let mut oracle = ServiceOracle::new(&fleet);
        let c = oracle.cost(&fleet, 0, 9, 0);
        let one = c.batch_latency_s(1);
        let four = c.batch_latency_s(4);
        assert!((four - one - 3.0 * c.item_latency_s).abs() < 1e-15);
        // Batching 4 requests beats 4 singleton dispatches.
        assert!(four < 4.0 * one);
        assert!(c.batch_energy_j(4) < 4.0 * c.batch_energy_j(1));
    }

    #[test]
    #[should_panic(expected = "zero compute groups")]
    fn zero_active_groups_rejected() {
        let fleet = FleetConfig::paper_pair();
        ServiceOracle::new(&fleet).cost(&fleet, 0, 0, 0);
    }
}
