//! Functional analog simulation of the Albireo photonic datapath.
//!
//! Where [`crate::sched`] and [`crate::energy`] model *performance*, this
//! module models *function*: it pushes real tensors through the physical
//! signal chain —
//!
//! 1. inputs normalized to optical powers and modulated onto the PLCU's
//!    wavelengths,
//! 2. star-coupler multicast of each kernel row's `Nd + Wx − 1` channels,
//! 3. MZM multiplication (every wavelength on a waveguide scaled by the
//!    same kernel weight, Eq. 2),
//! 4. MRR switching onto the positive/negative rails with inter-channel
//!    crosstalk leakage (the dominant precision limit, §II-C2) and
//!    off-state leakage,
//! 5. balanced photodetection (Eq. 4) with RIN/shot/thermal noise
//!    sampling (Eq. 5/6),
//! 6. TIA + ADC quantization and digital depth-first accumulation over
//!    `⌈Wz/Nu⌉` cycles (Algorithm 2).
//!
//! The result is validated against the digital golden model in
//! `albireo-tensor` within the precision bound predicted by
//! `albireo-photonics::precision`.

use crate::config::ChipConfig;
use albireo_parallel::{split_seed, stream_id, Parallelism};
use albireo_photonics::link::LinkBudget;
use albireo_photonics::mrr::Microring;
use albireo_photonics::noise::{NoiseParams, PreparedNoise};
use albireo_photonics::photodiode::BalancedPd;
use albireo_photonics::precision::PrecisionModel;
use albireo_tensor::conv::ConvSpec;
use albireo_tensor::{output_extent, Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{LN_2, TAU};
use std::sync::OnceLock;

/// Configuration of the analog simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogSimConfig {
    /// Per-wavelength laser power, W (paper Fig. 3 anchor: 2 mW).
    pub laser_power_w: f64,
    /// ADC resolution, bits (paper: 8-bit converters).
    pub adc_bits: u32,
    /// Sample receiver noise (RIN/shot/thermal).
    pub enable_noise: bool,
    /// Model MRR inter-channel and off-state crosstalk.
    pub enable_crosstalk: bool,
    /// Wavelength-to-channel allocation strategy (see
    /// [`ChannelAllocation`]).
    pub allocation: ChannelAllocation,
    /// Digitally pre-compensate the deterministic crosstalk leakage: the
    /// controller knows what it transmitted, so it can subtract the
    /// predicted inter-channel interference from each detected partial —
    /// an architectural extension beyond the paper (its §II-C treats
    /// crosstalk as an uncorrected precision limit).
    pub crosstalk_compensation: bool,
    /// RNG seed for noise sampling (the simulation is deterministic per
    /// seed).
    pub seed: u64,
}

impl Default for AnalogSimConfig {
    fn default() -> AnalogSimConfig {
        AnalogSimConfig {
            laser_power_w: 2e-3,
            adc_bits: 8,
            enable_noise: true,
            enable_crosstalk: true,
            allocation: ChannelAllocation::Contiguous,
            crosstalk_compensation: false,
            seed: 0xA1B1_2E00,
        }
    }
}

/// How the PLCU's wavelengths are assigned to multicast columns.
///
/// The paper's Fig. 5 assigns each kernel row a *contiguous* block of
/// `Nd + Wx − 1` channels, so a ring's nearest spectral neighbours are the
/// row's own data channels. Interleaving the rows across the FSR (row `r`
/// takes slots `r, r + Wy, r + 2·Wy, …`) multiplies each ring's
/// nearest-neighbour detuning by `Wy`, cutting intra-row crosstalk — an
/// allocation optimization beyond the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelAllocation {
    /// Each row's channels occupy adjacent wavelength slots (the paper's
    /// layout).
    #[default]
    Contiguous,
    /// Rows are interleaved: adjacent slots belong to different rows, so
    /// same-row channels sit `Wy` slots apart.
    RowInterleaved,
}

/// A hardware fault injected into the analog datapath, for reliability
/// studies. Faults apply uniformly to every PLCU of the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// A switching ring stuck off: the crossing at (kernel row, kernel
    /// column, output column) never drops its signal onto its rail.
    DeadRing {
        /// Kernel row of the crossing.
        row: usize,
        /// Kernel column of the crossing.
        col: usize,
        /// Output column of the crossing.
        output: usize,
    },
    /// A weight MZM stuck at a fixed (signed, normalized) transmission.
    StuckMzm {
        /// Kernel row of the modulator.
        row: usize,
        /// Kernel column of the modulator.
        col: usize,
        /// The stuck weight in `[-1, 1]`.
        weight: f64,
    },
    /// A dead laser/modulator: the multicast column carries no power.
    DeadChannel {
        /// Multicast column index (`0..Nd + Wx − 1`).
        column: usize,
    },
}

/// A set of injected faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSet {
    faults: Vec<Fault>,
}

impl FaultSet {
    /// An empty (healthy) fault set.
    pub fn new() -> FaultSet {
        FaultSet::default()
    }

    /// Adds a fault.
    pub fn push(&mut self, fault: Fault) -> &mut FaultSet {
        self.faults.push(fault);
        self
    }

    /// Whether no faults are present.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The injected faults, in insertion order.
    pub fn as_slice(&self) -> &[Fault] {
        &self.faults
    }

    fn ring_dead(&self, row: usize, col: usize, output: usize) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::DeadRing { row: r, col: c, output: o }
                if *r == row && *c == col && *o == output)
        })
    }

    fn mzm_override(&self, row: usize, col: usize) -> Option<f64> {
        self.faults.iter().find_map(|f| match f {
            Fault::StuckMzm {
                row: r,
                col: c,
                weight,
            } if *r == row && *c == col => Some(*weight),
            _ => None,
        })
    }

    fn channel_dead(&self, column: usize) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::DeadChannel { column: c } if *c == column))
    }
}

impl AnalogSimConfig {
    /// An ideal configuration (no noise, no crosstalk, fine ADC) — useful
    /// for isolating quantization effects in tests.
    pub fn ideal() -> AnalogSimConfig {
        AnalogSimConfig {
            enable_noise: false,
            enable_crosstalk: false,
            adc_bits: 16,
            ..AnalogSimConfig::default()
        }
    }
}

/// The analog PLCG/chip simulation engine.
#[derive(Debug, Clone)]
pub struct AnalogEngine {
    chip: ChipConfig,
    cfg: AnalogSimConfig,
    ring: Microring,
    pd: BalancedPd,
    /// Receiver noise with its per-detection constants evaluated once.
    noise: PreparedNoise,
    /// Per-wavelength optical power arriving at the photodiodes, W.
    p_channel: f64,
    /// Drop-port gain of an on-resonance switching ring (calibrated out of
    /// the output scale).
    main_gain: f64,
    /// Drop-port leakage of an off-state (detuned) ring.
    off_leakage: f64,
    /// Injected hardware faults.
    faults: FaultSet,
    /// Parallel execution policy for the per-kernel work items.
    par: Parallelism,
}

/// Stream-id pass tag for [`AnalogEngine::dot`] noise draws, keeping the
/// FC path's child seeds disjoint from every convolution pass.
const DOT_PASS: u64 = 0xD07;

impl AnalogEngine {
    /// Builds an engine for a chip configuration.
    pub fn new(chip: &ChipConfig, cfg: AnalogSimConfig) -> AnalogEngine {
        let params = chip.optical_params();
        let ring = Microring::from_params(&params);
        let link = LinkBudget::albireo_chip(&params, chip.ng, chip.kernel_x, chip.plcu.nd, 10);
        let p_channel = link.output_power(cfg.laser_power_w);
        AnalogEngine {
            chip: *chip,
            cfg,
            ring,
            pd: BalancedPd::from_params(&params),
            noise: NoiseParams::paper().prepared(),
            p_channel,
            main_gain: ring.drop_peak(),
            off_leakage: ring.drop_transmission(ring.fsr() / 2.0),
            faults: FaultSet::new(),
            par: Parallelism::default(),
        }
    }

    /// Sets the parallel execution policy (builder style). Results are
    /// bit-identical at any thread count: noise streams are keyed to work
    /// items, not threads.
    pub fn with_parallelism(mut self, par: Parallelism) -> AnalogEngine {
        self.par = par;
        self
    }

    /// The per-work-item noise generator for pass `pass`, kernel `m`,
    /// output row `yb`. Derived purely from the configured seed and the
    /// item's logical coordinates, so the stream an item draws from is
    /// independent of thread count and execution order.
    fn item_rng(&self, pass: u64, m: usize, yb: usize) -> StdRng {
        StdRng::seed_from_u64(split_seed(
            self.cfg.seed,
            stream_id(pass, m as u64, yb as u64),
        ))
    }

    /// Injects a set of hardware faults (replacing any previous set).
    pub fn inject_faults(&mut self, faults: FaultSet) {
        self.faults = faults;
    }

    /// The currently injected faults.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The per-wavelength power reaching the photodiodes, W.
    pub fn channel_power_w(&self) -> f64 {
        self.p_channel
    }

    /// The precision (bits) the photonic subsystem is predicted to support
    /// for this configuration, from the combined noise + crosstalk model.
    pub fn expected_bits(&self) -> f64 {
        let model = PrecisionModel::paper();
        let n = self.chip.wavelengths_per_plcu();
        let levels = model.combined_levels(&self.ring, n, self.p_channel);
        PrecisionModel::with_negative_rail(levels).log2()
    }

    /// Crosstalk (drop transmission) from a channel `offset` wavelength
    /// slots away, with all `wavelengths_per_plcu` channels uniformly
    /// spaced in one FSR. A convolution evaluates it once per offset, into
    /// the table its [`ConvPlan`] builds its planes from.
    fn crosstalk(&self, offset: isize, enabled: bool) -> f64 {
        if offset == 0 {
            return self.main_gain;
        }
        if !enabled {
            return 0.0;
        }
        let n = self.chip.wavelengths_per_plcu() as f64;
        let spacing = self.ring.fsr() / n;
        let slots = match self.cfg.allocation {
            ChannelAllocation::Contiguous => offset as f64,
            // Same-row channels are Wy slots apart under interleaving.
            ChannelAllocation::RowInterleaved => (offset * self.chip.kernel_y as isize) as f64,
        };
        self.ring
            .drop_at_phase(self.ring.phase_detuning(slots * spacing))
    }

    /// The converter of a detection whose full scale is `full_scale_terms`
    /// terms at the channel power.
    fn adc(&self, full_scale_terms: usize) -> Adc {
        let r = self.pd.positive().responsivity();
        let i_fs = r * self.p_channel * self.main_gain * full_scale_terms as f64;
        Adc::new(i_fs, self.cfg.adc_bits, full_scale_terms)
    }

    /// The receiver noise variance, A², at rail powers `p_pos` and `p_neg`.
    fn variance(&self, p_pos: f64, p_neg: f64) -> f64 {
        let r = self.pd.positive().responsivity();
        let n = self.chip.wavelengths_per_plcu();
        self.noise.total_variance(r * (p_pos + p_neg), n)
    }

    /// The exact code of a noisy detection: the Box–Muller sample of
    /// `uniforms`, scaled by the noise σ, added to the current before the
    /// converter. [`Adc::refine`] fixes it from an approximate sample when
    /// it can; otherwise the transform runs.
    fn noisy_code(&self, adc: &Adc, p_pos: f64, p_neg: f64, uniforms: (f64, f64)) -> i64 {
        let current = self.pd.output_current_total(p_pos, p_neg);
        let sigma = self.variance(p_pos, p_neg).sqrt();
        match adc.refine(current, sigma, uniforms) {
            (code, true) => code,
            (_, false) => adc.code(current + sigma * box_muller(uniforms)),
        }
    }

    /// Converts rail powers to a balanced, noise-sampled, ADC-quantized
    /// *normalized* dot-product value. Noise is drawn from the caller's
    /// per-work-item generator; [`AnalogEngine::noisy_code`] runs only
    /// when [`Adc::decide`] cannot fix the code.
    fn detect(&self, adc: &Adc, p_pos: f64, p_neg: f64, rng: &mut StdRng) -> f64 {
        let code = if self.cfg.enable_noise {
            let uniforms = uniforms(rng);
            let current = self.pd.output_current_total(p_pos, p_neg);
            match adc.decide(current, self.variance(p_pos, p_neg), uniforms) {
                (code, true) => code,
                (_, false) => self.noisy_code(adc, p_pos, p_neg, uniforms),
            }
        } else {
            adc.code(self.pd.output_current_total(p_pos, p_neg))
        };
        adc.normalized(code)
    }

    /// Detects every field of one (block, Nu-group) tile into `detected`:
    /// the first `cols` lanes of each output row, row `yb` drawing from
    /// `rngs[yb]` in field order, with the bits [`AnalogEngine::detect`]
    /// gives one field at a time. With noise on it runs in two passes,
    /// so no detection branches on the outcome: the first draws every
    /// field's uniforms, stores the code [`Adc::decide`] returns and
    /// appends the field to `pending`, advancing the list's end only when
    /// the code was not decided; the second runs
    /// [`AnalogEngine::noisy_code`] over the fields left pending and
    /// overwrites their codes.
    fn detect_tile(
        &self,
        adc: &Adc,
        (p_pos, p_neg): (&[f64], &[f64]),
        rngs: &mut [StdRng],
        (row_len, cols): (usize, usize),
        detected: &mut [f64],
        pending: &mut [(usize, (f64, f64))],
    ) {
        let fields = |yb: usize| yb * row_len..yb * row_len + cols;
        if !self.cfg.enable_noise {
            for (yb, rng) in rngs.iter_mut().enumerate() {
                for j in fields(yb) {
                    detected[j] = self.detect(adc, p_pos[j], p_neg[j], rng);
                }
            }
            return;
        }
        let mut open = 0;
        for (yb, rng) in rngs.iter_mut().enumerate() {
            for j in fields(yb) {
                let uniforms = uniforms(rng);
                let current = self.pd.output_current_total(p_pos[j], p_neg[j]);
                let (code, decided) =
                    adc.decide(current, self.variance(p_pos[j], p_neg[j]), uniforms);
                detected[j] = adc.normalized(code);
                pending[open] = (j, uniforms);
                open += usize::from(!decided);
            }
        }
        for &(j, uniforms) in &pending[..open] {
            detected[j] = adc.normalized(self.noisy_code(adc, p_pos[j], p_neg[j], uniforms));
        }
    }

    /// Computes a signed dot product `a · w` through the analog datapath
    /// using the FC mapping (one PD column, `Nm·Nu` terms per cycle).
    ///
    /// # Panics
    ///
    /// Panics if any input is negative (optical powers cannot be) or the
    /// lengths differ.
    pub fn dot(&self, a: &[f64], w: &[f64]) -> f64 {
        assert_eq!(a.len(), w.len(), "dot operands must have equal length");
        assert!(
            a.iter().all(|&v| v >= 0.0),
            "optical inputs must be non-negative"
        );
        let a_max = a.iter().fold(0.0_f64, |m, v| m.max(*v));
        let w_max = w.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        if a_max == 0.0 || w_max == 0.0 {
            return 0.0;
        }
        let chunk = self.chip.plcu.nm * self.chip.nu;
        let adc = self.adc(chunk);
        let mut acc = 0.0;
        for (ci, (ac, wc)) in a.chunks(chunk).zip(w.chunks(chunk)).enumerate() {
            // Each Nm·Nu chunk is one detection event with its own derived
            // noise stream.
            let mut rng = self.item_rng(DOT_PASS, ci, 0);
            // Each term gets its own wavelength/MZM: model as a 1-column
            // PLCU row per term (no receptive-field sharing in FC, §III-C).
            let mut p_pos = 0.0;
            let mut p_neg = 0.0;
            for (&ai, &wi) in ac.iter().zip(wc.iter()) {
                let a_norm = ai / a_max;
                let w_norm = wi / w_max;
                let p = a_norm * w_norm.abs() * self.main_gain * self.p_channel;
                if w_norm >= 0.0 {
                    p_pos += p;
                    p_neg += a_norm
                        * w_norm.abs()
                        * if self.cfg.enable_crosstalk {
                            self.off_leakage
                        } else {
                            0.0
                        }
                        * self.p_channel;
                } else {
                    p_neg += p;
                    p_pos += a_norm
                        * w_norm.abs()
                        * if self.cfg.enable_crosstalk {
                            self.off_leakage
                        } else {
                            0.0
                        }
                        * self.p_channel;
                }
            }
            acc += self.detect(&adc, p_pos, p_neg, &mut rng);
        }
        acc * a_max * w_max
    }

    /// Runs a full convolution through the analog datapath, following the
    /// Algorithm 2 partitioning (kernels across PLCGs, `Nd` receptive
    /// fields per PLCU, `Nu`-channel groups aggregated depth-first in the
    /// digital domain): [`conv2d_grouped`](AnalogEngine::conv2d_grouped)
    /// with one group, so a kernel of any size runs. No activation is
    /// applied.
    ///
    /// # Panics
    ///
    /// Panics if the kernel depth mismatches the input, or if any input
    /// element is negative.
    pub fn conv2d(&self, input: &Tensor3, kernels: &Tensor4, spec: &ConvSpec) -> Tensor3 {
        self.conv2d_grouped(input, kernels, spec, 1)
    }

    /// Grouped convolution through the analog datapath, the one analog
    /// convolution. Each of the `groups` channel slices (AlexNet's two
    /// groups; one per channel for a depthwise layer) is an independent
    /// convolution. A kernel with more than the PLCU's `Nm` weights per
    /// channel runs as decomposition passes of at most `Nm` weights —
    /// full-width bands of `⌊Nm/Wx⌋` rows, or single-row chunks of `Nm`
    /// columns when a row is wider than `Nm` — whose partial outputs add
    /// digitally: the extra cycles the paper describes for kernels that
    /// "will not completely fit in the PLCU's MZMs" (§III-A). One plan per
    /// call covers every group and pass (DESIGN.md §17).
    ///
    /// Output kernels are independent work items executed under the
    /// engine's [`Parallelism`] policy; each `(pass, kernel, output row)`
    /// draws noise from its own seed-derived generator, so the output is
    /// bit-identical at any thread count.
    ///
    /// Inside a work item the loop is weight-stationary, as the PLCU is:
    /// pass → Nd-block → Nu-group → channel → weight, and each weight
    /// sweeps the block's fields in every output row at once.
    ///
    /// # Panics
    ///
    /// Panics if the channel counts are not divisible by `groups`, if the
    /// kernel depth is not the input depth over `groups`, or if any input
    /// element is negative.
    pub fn conv2d_grouped(
        &self,
        input: &Tensor3,
        kernels: &Tensor4,
        spec: &ConvSpec,
        groups: usize,
    ) -> Tensor3 {
        assert!(groups > 0, "groups must be positive");
        let (az, ay, ax) = input.dims();
        let (wm, wz, wy, wx) = kernels.dims();
        assert_eq!(az % groups, 0, "input depth not divisible by groups");
        assert_eq!(wm % groups, 0, "kernel count not divisible by groups");
        assert_eq!(
            wz,
            az / groups,
            "kernel depth {wz} must equal input depth {az} / {groups} groups"
        );
        assert!(
            input.iter().all(|&v| v >= 0.0),
            "optical inputs must be non-negative"
        );
        let _prof = albireo_obs::profile::scope("analog.conv2d");
        let by = output_extent(ay, wy, spec.padding, spec.stride);
        let bx = output_extent(ax, wx, spec.padding, spec.stride);
        let mut out = Tensor3::zeros(wm, by, bx);
        let plan = ConvPlan::new(self, input, kernels, spec, groups);
        let (nd_eff, row_len) = (plan.nd_eff, plan.row_len);
        let nu = self.chip.nu;
        let leak = plan.leak.as_deref();
        let kernels_per_group = wm / groups;
        let adc = self.adc(plan.full_scale_terms);

        self.par
            .fill_slices(out.as_mut_slice(), (by * bx).max(1), |m, outputs| {
                // Kernel `m` is kernel `local` of group `g`, over the
                // group's channels `g·wz..`; `local` keys its noise.
                let (g, local) = (m / kernels_per_group, m % kernels_per_group);
                // Scratch tiles for one block of every output row, `[yb][t]`:
                // field `d` of row `yb` is lane `yb·row_len + d`, and lanes
                // `t ≥ cols` are never read. `excess` is the predicted
                // crosstalk (signed rail power) for digital pre-compensation.
                let mut scratch = vec![0.0; 9 * by * row_len];
                let mut tiles = scratch.chunks_exact_mut(by * row_len);
                let [pos, neg, ideal_pos, ideal_neg, p_pos, p_neg, excess, detected, totals] =
                    std::array::from_fn(|_| tiles.next().expect("nine tiles"));
                // The fields whose noisy code awaits the exact transform.
                let mut pending = vec![(0, (0.0, 0.0)); by * row_len];
                for pass in &plan.passes[g] {
                    // Every output row's noise stream. Each draws in its own
                    // (block, Nu-group, field) order, so interleaving the
                    // rows moves no sample.
                    let mut rngs: Vec<StdRng> = (0..by)
                        .map(|yb| self.item_rng(pass.id, local, yb))
                        .collect();
                    let weights = &pass.weights[local * wz * wy * wx..];
                    for block in 0..plan.blocks {
                        let xb = block * nd_eff;
                        let cols = nd_eff.min(bx - xb);
                        totals.fill(0.0);
                        // Depth-first aggregation over Nu-channel groups.
                        let mut z0 = 0;
                        while z0 < wz {
                            let group = nu.min(wz - z0);
                            p_pos.fill(0.0);
                            p_neg.fill(0.0);
                            if plan.ideal.is_some() {
                                excess.fill(0.0);
                            }
                            // One wall-clock scope per (block, Nu-group): the
                            // MRR/MZM transfer of the group's PLCU cycles in
                            // every output row.
                            let rails_prof = albireo_obs::profile::scope("analog.rails");
                            for z in z0..z0 + group {
                                let w = &weights[z * wy * wx..][..wy * wx];
                                let cycle = (g * wz + z, block, cols);
                                plan.tile_rails(&plan.plane, leak, w, cycle, pos, neg);
                                if let Some(ideal) = &plan.ideal {
                                    plan.tile_rails(ideal, None, w, cycle, ideal_pos, ideal_neg);
                                    let ideal = ideal_pos.iter().zip(ideal_neg.iter());
                                    for (e, ((p, n), (pi, ni))) in
                                        excess.iter_mut().zip(pos.iter().zip(neg.iter()).zip(ideal))
                                    {
                                        *e += (p - n) - (pi - ni);
                                    }
                                }
                                // Currents from corresponding PDs across the
                                // group's PLCUs add in the analog domain.
                                for (acc, p) in p_pos.iter_mut().zip(pos.iter()) {
                                    *acc += p;
                                }
                                for (acc, n) in p_neg.iter_mut().zip(neg.iter()) {
                                    *acc += n;
                                }
                            }
                            drop(rails_prof);
                            let _detect_prof = albireo_obs::profile::scope("analog.detect");
                            let rails = (&*p_pos, &*p_neg);
                            let tile = (row_len, cols);
                            self.detect_tile(&adc, rails, &mut rngs, tile, detected, &mut pending);
                            for yb in 0..by {
                                for j in yb * row_len..yb * row_len + cols {
                                    let mut value = detected[j];
                                    if plan.ideal.is_some() {
                                        // Subtract the predicted interference
                                        // in the normalized dot-product domain.
                                        value -= excess[j] / (self.p_channel * self.main_gain);
                                    }
                                    totals[j] += value;
                                }
                            }
                            z0 += group;
                        }
                        // Passes add digitally. `totals` start at `+0.0` and
                        // add detections that are never `−0.0`, so adding
                        // the first pass into the zeroed plane is exact.
                        for (yb, row) in totals.chunks(row_len).enumerate() {
                            for (o, t) in outputs[yb * bx + xb..][..cols].iter_mut().zip(row) {
                                *o += t * pass.scale;
                            }
                        }
                    }
                }
            });
        out
    }
}

/// The physics of one convolution call, prepared once before its first
/// PLCU cycle: the normalized operands of every group and decomposition
/// pass, the fault masks, and the crosstalk-weighted input planes every
/// cycle reads.
///
/// A ring tuned to multicast column `t` drops `Σ_c xt[c − t]·a[c]` from
/// its row (main term plus crosstalk from the row's other channels),
/// scaled by the shared MZM weight. That sum depends on the input row and
/// `t` only — not on the kernel, the weight, the pass or the output row —
/// so it is evaluated once per (channel, block, padded row, `t`) into a
/// plane, and a PLCU cycle becomes `Wy·Wx·Nd` multiply-adds over it.
///
/// Planes are laid out `[z][block][padded row][t]`, so at stride 1 the
/// sources of one weight's fields in every output row of a block are one
/// contiguous run, and [`ConvPlan::tile_rails`] sweeps it in one branch-free
/// loop. Outputs are bit-identical to evaluating the ring per element:
/// each plane entry adds its terms in ascending `c`, a dead column's
/// adding `+0.0` to a sum that is never `−0.0`, and every field
/// accumulates its cycle's terms in the same `(r, k)` order (DESIGN.md
/// §17).
struct ConvPlan {
    /// Kernel rows.
    wy: usize,
    /// Kernel columns.
    wx: usize,
    stride: usize,
    /// Receptive fields per PLCU cycle: `Nd` at stride 1, where they
    /// overlap (the multicast pattern), else 1.
    nd_eff: usize,
    /// Output rows.
    by: usize,
    /// Blocks of `nd_eff` output columns per output row.
    blocks: usize,
    /// Multicast columns of a full block, `nd_eff + wx − 1`; a short last
    /// block uses a prefix.
    row_len: usize,
    /// Padded input rows, covering every receptive field.
    py: usize,
    /// ADC full scale in terms, `max(Wy·Wx, Nm)·Nu`: a pass's `Nm` MZMs,
    /// or every weight of a decomposed kernel.
    full_scale_terms: usize,
    /// Each group's live decomposition passes, in tile order.
    passes: Vec<Vec<Pass>>,
    /// Live switching rings as `1.0`/`0.0` factors, `[r][k][yb][t]`: ring
    /// `(r, k, t)` tiled over the output rows, `0.0` where it is dead and
    /// on the lanes `t ≥ nd_eff` no field reads. Present only when the
    /// fault set kills a ring the plan reads.
    live: Option<Vec<f64>>,
    /// Dropped power per unit weight and channel power: `[z][block][py][t]`.
    plane: Vec<f64>,
    /// The same with crosstalk off, for compensation's reference pass;
    /// present only when compensating.
    ideal: Option<Vec<f64>>,
    /// The normalized input with dead multicast columns zeroed, in the
    /// plane's layout: the source of off-state leakage onto the opposite
    /// rail. Present only with crosstalk on.
    leak: Option<Vec<f64>>,
    p_channel: f64,
    off_leakage: f64,
}

/// One decomposition pass of one group: a tile of at most `Nm` weights of
/// each of the group's kernels. A pass whose group input or tile weights
/// are all zero is left out, so it draws no noise and its outputs stay
/// `0.0`.
struct Pass {
    /// Noise pass id: `g·1024 + t` for tile `t` of group `g`.
    id: u64,
    /// Output scale, the group's `a_max` times the tile's `w_max`.
    scale: f64,
    /// The group's kernels masked to the tile and divided by its `w_max`,
    /// stuck MZMs applied everywhere: `[m][z][r][k]`.
    weights: Vec<f64>,
}

impl ConvPlan {
    fn new(
        engine: &AnalogEngine,
        input: &Tensor3,
        kernels: &Tensor4,
        spec: &ConvSpec,
        groups: usize,
    ) -> ConvPlan {
        let _prof = albireo_obs::profile::scope("analog.plan");
        let (_, ay, ax) = input.dims();
        let (wm, wz, wy, wx) = kernels.dims();
        let (stride, pad) = (spec.stride, spec.padding);
        let by = output_extent(ay, wy, pad, stride);
        let bx = output_extent(ax, wx, pad, stride);
        let nd_eff = if stride == 1 { engine.chip.plcu.nd } else { 1 };
        let row_len = nd_eff + wx - 1;
        // A group's channels and kernels are each one contiguous block of
        // the row-major buffers; each group normalizes by its own `a_max`.
        let (group_input, group_kernels) = (wz * ay * ax, wm / groups * wz * wy * wx);
        let max_abs = |v: &[f64]| v.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let a_max: Vec<f64> = (0..groups)
            .map(|g| max_abs(&input.as_slice()[g * group_input..][..group_input]))
            .collect();
        let faults = &engine.faults;
        let stuck: Vec<Option<f64>> = (0..wy * wx)
            .map(|i| faults.mzm_override(i / wx, i % wx))
            .collect();
        // Decomposition tiles of at most Nm weights, row bands outer and
        // column chunks inner: the whole kernel when it fits, else
        // full-width bands of ⌊Nm/Wx⌋ rows, else single-row chunks of Nm
        // columns. Each is a mask over `[r][k]`; the sum over tiles is the
        // convolution by linearity.
        let nm = engine.chip.plcu.nm;
        let (band, chunk) = if wy * wx <= nm {
            (wy, wx)
        } else if wx <= nm {
            (nm / wx, wx)
        } else {
            (1, nm)
        };
        let tiles: Vec<Vec<bool>> = (0..wy)
            .step_by(band)
            .flat_map(|r0| (0..wx).step_by(chunk).map(move |c0| (r0, c0)))
            .map(|(r0, c0)| {
                (0..wy * wx)
                    .map(|i| {
                        (r0..r0 + band).contains(&(i / wx)) && (c0..c0 + chunk).contains(&(i % wx))
                    })
                    .collect()
            })
            .collect();
        let passes = (0..groups)
            .map(|g| {
                let group = &kernels.as_slice()[g * group_kernels..][..group_kernels];
                let mut passes = Vec::new();
                for (t, tile) in tiles.iter().enumerate() {
                    let masked = || group.iter().zip(tile.iter().cycle());
                    let w_max = masked()
                        .filter(|&(_, &inside)| inside)
                        .fold(0.0_f64, |m, (w, _)| m.max(w.abs()));
                    if a_max[g] == 0.0 || w_max == 0.0 {
                        // Nothing to detect: no noise drawn, no output.
                        continue;
                    }
                    let weights = masked()
                        .zip(stuck.iter().cycle())
                        .map(|((w, &inside), s)| s.unwrap_or(if inside { w / w_max } else { 0.0 }))
                        .collect();
                    passes.push(Pass {
                        id: g as u64 * 1024 + t as u64,
                        scale: a_max[g] * w_max,
                        weights,
                    });
                }
                passes
            })
            .collect();
        // The plan reads rings `(r, k, t)` with `t < nd_eff`.
        let ring_read = |r: usize, k: usize, t: usize| r < wy && k < wx && t < nd_eff;
        let kills_a_ring = faults.as_slice().iter().any(
            |f| matches!(*f, Fault::DeadRing { row, col, output } if ring_read(row, col, output)),
        );
        let live = kills_a_ring.then(|| {
            let mut live = Vec::with_capacity(wy * wx * by * row_len);
            for rk in 0..wy * wx {
                let start = live.len();
                live.extend((0..row_len).map(|t| {
                    let dead = t >= nd_eff || faults.ring_dead(rk / wx, rk % wx, t);
                    if dead {
                        0.0
                    } else {
                        1.0
                    }
                }));
                for _ in 1..by {
                    live.extend_from_within(start..start + row_len);
                }
            }
            live
        });
        let mut plan = ConvPlan {
            wy,
            wx,
            stride,
            nd_eff,
            by,
            blocks: bx.div_ceil(nd_eff),
            row_len,
            // Output extents round up, so the last field may overhang the
            // padding; the overhang reads zeros.
            py: (by - 1) * stride + wy,
            full_scale_terms: (wy * wx).max(nm) * engine.chip.nu,
            passes,
            live,
            plane: Vec::new(),
            ideal: None,
            leak: None,
            p_channel: engine.p_channel,
            off_leakage: engine.off_leakage,
        };
        plan.lay_out(engine, input, &a_max, (pad, (bx - 1) * stride + wx));
        plan
    }

    /// Normalizes, pads and lays the input out into the planes in one pass
    /// over it. Each input row is divided by its group's `a_max` once, into
    /// a padded row of `px` columns; each block's multicast columns, dead
    /// ones zeroed, then fill the block's entries of that row in every
    /// plane, all `row_len` of them unless the block is short (the rest
    /// stay `0.0`). Padding rows and all-zero groups are skipped: their
    /// entries would sum to the `0.0` they start at.
    ///
    /// With crosstalk on, each plane entry is the banded product
    /// `Σ_c xt[c − t]·a[c]`, column `c` outer and ring `t` inner, so every
    /// entry still adds its terms in ascending `c`. With crosstalk off only
    /// `c = t` has a nonzero coefficient, and the entry is the diagonal
    /// `0.0 + main_gain·a[t]`; the `0.0 +` keeps a `−0.0` input's entry at
    /// the `+0.0` of a sum started at `0.0` (DESIGN.md §17).
    fn lay_out(
        &mut self,
        engine: &AnalogEngine,
        input: &Tensor3,
        a_max: &[f64],
        (pad, px): (usize, usize),
    ) {
        let (az, ay, ax) = input.dims();
        let wz = az / a_max.len();
        let row_len = self.row_len;
        let size = az * self.blocks * self.py * row_len;
        let crosstalk = engine.cfg.enable_crosstalk;
        let compensating = crosstalk && engine.cfg.crosstalk_compensation;
        let (mut plane, mut ideal, mut leak) = (
            vec![0.0; size],
            compensating.then(|| vec![0.0; size]),
            crosstalk.then(|| vec![0.0; size]),
        );
        // The coefficients reversed: `xt[span − o]` is the one at offset
        // `o = c − t`, so column `c`'s terms over ascending `t` are the
        // forward run `xt[span − c..]`.
        let span = row_len - 1;
        let xt: Vec<f64> = (0..=2 * span)
            .map(|i| engine.crosstalk(span as isize - i as isize, true))
            .collect();
        let dead: Vec<bool> = (0..row_len)
            .map(|c| engine.faults.channel_dead(c))
            .collect();
        let diagonal = |dst: &mut [f64], a: &[f64]| {
            for (d, &a) in dst.iter_mut().zip(a) {
                *d = 0.0 + engine.main_gain * a;
            }
        };
        let (mut row, mut columns) = (vec![0.0; px], vec![0.0; row_len]);
        for (i, src) in input.as_slice().chunks(ax).enumerate() {
            let (z, y) = (i / ay, i % ay);
            let a_max = a_max[z / wz];
            if a_max == 0.0 {
                continue;
            }
            for (d, a) in row[pad..][..ax].iter_mut().zip(src) {
                *d = a / a_max;
            }
            for block in 0..self.blocks {
                let x0 = block * self.nd_eff * self.stride;
                // A short last block ends at the padded row's end.
                let a = &mut columns[..row_len.min(px - x0)];
                for ((a, &v), &dead) in a.iter_mut().zip(&row[x0..]).zip(&dead) {
                    *a = if dead { 0.0 } else { v };
                }
                let at = ((z * self.blocks + block) * self.py + y + pad) * row_len;
                let dst = &mut plane[at..][..a.len()];
                if crosstalk {
                    for (c, &a) in a.iter().enumerate() {
                        for (d, &x) in dst.iter_mut().zip(&xt[span - c..]) {
                            *d += x * a;
                        }
                    }
                } else {
                    diagonal(dst, a);
                }
                if let Some(ideal) = &mut ideal {
                    diagonal(&mut ideal[at..][..a.len()], a);
                }
                if let Some(leak) = &mut leak {
                    leak[at..][..a.len()].copy_from_slice(a);
                }
            }
        }
        (self.plane, self.ideal, self.leak) = (plane, ideal, leak);
    }

    /// Simulates one kernel channel's `weights` (`[r][k]`) over input
    /// channel `z` on block `block` (its first `cols` fields) in every
    /// output row at once, overwriting `pos` and `neg` (`[yb][t]`) with
    /// each field's positive and negative rail powers. Each weight is read
    /// once and swept over the whole tile. Compensation's reference pass
    /// reads the crosstalk-off plane with no `leak` source. Weights and
    /// mask rows are indexed `r·Wx + k`, so a channel costs no integer
    /// divide.
    fn tile_rails(
        &self,
        plane: &[f64],
        leak: Option<&[f64]>,
        weights: &[f64],
        (z, block, cols): (usize, usize, usize),
        pos: &mut [f64],
        neg: &mut [f64],
    ) {
        pos.fill(0.0);
        neg.fill(0.0);
        let tile = self.by * self.row_len;
        let base = (z * self.blocks + block) * self.py * self.row_len;
        for r in 0..self.wy {
            for k in 0..self.wx {
                let rk = r * self.wx + k;
                let w = weights[rk];
                if w == 0.0 {
                    // Its sweep would add only `±0.0`: a decomposition pass
                    // costs its unmasked weights alone.
                    continue;
                }
                let at = base + r * self.row_len + k;
                // The matching-sign ring drops onto its rail; the
                // opposite-rail ring is detuned but leaks a little.
                let (rail, opposite) = if w > 0.0 {
                    (&mut *pos, &mut *neg)
                } else {
                    (&mut *neg, &mut *pos)
                };
                let sources = (&plane[at..], leak.map(|leak| &leak[at..]));
                let mag = w.abs().min(1.0);
                match &self.live {
                    Some(live) => {
                        let live = &live[rk * tile..][..tile];
                        self.sweep(rail, opposite, sources, live, cols, mag);
                    }
                    None => self.sweep(rail, opposite, sources, AllLive, cols, mag),
                }
            }
        }
    }

    /// Adds one weight's terms into every field of the tile: the rail
    /// gets `plane·mag·p_channel·live` and, with a `leak` source, the
    /// opposite rail gets `leak·mag·off_leakage·p_channel·live` in the same
    /// loop, or the same terms without `·live` under [`AllLive`]. At
    /// stride 1 the fields are one contiguous run of `(by − 1)·row_len +
    /// cols` lanes, whose sources sit at the same offsets in the planes; at
    /// stride above 1 they are lane 0 of each row, the source stepping
    /// `stride` padded rows. The two rails are separate tiles, so each lane
    /// still adds the tile's weights in order; each is its own `&mut`
    /// parameter so the compiler knows they do not alias (in one tuple
    /// argument the loop ran slower).
    ///
    /// A dead ring's or gap lane's `×0.0` turns a term into `±0.0`, which
    /// leaves a sum that started at `+0.0` unchanged, so the masks cost no
    /// branch and move no bit. Without a mask the gap lanes take terms,
    /// but nothing reads a lane `t ≥ cols`.
    fn sweep<L: Live>(
        &self,
        rail: &mut [f64],
        opposite: &mut [f64],
        (plane, leak): (&[f64], Option<&[f64]>),
        live: L,
        cols: usize,
        mag: f64,
    ) {
        let (p, off) = (self.p_channel, self.off_leakage);
        if self.stride == 1 {
            // Indexing slices cut to one length vectorizes; the zipped
            // iterator form of this loop measured slower.
            let n = (self.by - 1) * self.row_len + cols;
            let (rail, plane, live) = (&mut rail[..n], &plane[..n], live.prefix(n));
            if let Some(leak) = leak {
                let (opposite, leak) = (&mut opposite[..n], &leak[..n]);
                for j in 0..n {
                    rail[j] += live.apply(plane[j] * mag * p, j);
                    opposite[j] += live.apply(leak[j] * mag * off * p, j);
                }
            } else {
                for j in 0..n {
                    rail[j] += live.apply(plane[j] * mag * p, j);
                }
            }
        } else {
            for yb in 0..self.by {
                let (j, s) = (yb * self.row_len, yb * self.stride * self.row_len);
                rail[j] += live.apply(plane[s] * mag * p, j);
                if let Some(leak) = leak {
                    opposite[j] += live.apply(leak[s] * mag * off * p, j);
                }
            }
        }
    }
}

/// The dead-ring factors a [`ConvPlan::sweep`] multiplies its terms by,
/// one per lane of the tile.
trait Live: Copy {
    /// The factors of the first `n` lanes.
    fn prefix(self, n: usize) -> Self;
    /// `term` times lane `j`'s factor.
    fn apply(self, term: f64, j: usize) -> f64;
}

/// One ring's `1.0`/`0.0` factors, a row of [`ConvPlan::live`].
impl Live for &[f64] {
    #[inline(always)]
    fn prefix(self, n: usize) -> Self {
        &self[..n]
    }

    #[inline(always)]
    fn apply(self, term: f64, j: usize) -> f64 {
        term * self[j]
    }
}

/// No ring the plan reads is dead: every term goes in as it is, exactly
/// the term times `1.0`.
#[derive(Debug, Clone, Copy)]
struct AllLive;

impl Live for AllLive {
    #[inline(always)]
    fn prefix(self, _: usize) -> Self {
        self
    }

    #[inline(always)]
    fn apply(self, term: f64, _: usize) -> f64 {
        term
    }
}

/// The two uniforms of one Box–Muller sample. A pair whose `u1` is not
/// above `f64::MIN_POSITIVE` (the generator's `0.0`) is discarded and
/// drawn again.
fn uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    loop {
        let u1: f64 = rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (u1, u2);
        }
    }
}

/// Box–Muller standard-normal sample of [`uniforms`].
fn box_muller((u1, u2): (f64, f64)) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Knots per unit of [`BoxMullerTables`]: mantissas `1 + j/128` and
/// angles `2πk/128`.
const KNOTS: usize = 128;

/// The tables [`approx_box_muller`] reads, built once.
#[derive(Debug)]
struct BoxMullerTables {
    /// `(ln x_j, 1/x_j)` at the mantissa knots `x_j = 1 + j/128`, `j` in
    /// `0..=128`, with `ln(x_j/2)` from `j = 64` on: a mantissa rounded to
    /// such a knot counts one power of two fewer, so a `u1` in `[¾, 1)`
    /// adds no multiple of `ln 2` to cancel.
    ln: [(f64, f64); KNOTS + 1],
    /// `(cos 2πk/128, sin 2πk/128)`, `k` in `0..=128`.
    trig: [(f64, f64); KNOTS + 1],
}

fn box_muller_tables() -> &'static BoxMullerTables {
    static TABLES: OnceLock<BoxMullerTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let step = 1.0 / KNOTS as f64;
        BoxMullerTables {
            ln: std::array::from_fn(|j| {
                let knot = 1.0 + j as f64 * step;
                let ln = if j < KNOTS / 2 {
                    knot.ln()
                } else {
                    (knot / 2.0).ln()
                };
                (ln, 1.0 / knot)
            }),
            trig: std::array::from_fn(|k| {
                let angle = TAU * (k as f64 * step);
                (angle.cos(), angle.sin())
            }),
        }
    })
}

/// An approximation of [`box_muller`] within [`Z_TOLERANCE`]`·(1 + |z̃|)`
/// of the libm-computed sample, for the `u1` above `f64::MIN_POSITIVE`
/// and the `u2` in `[0, 1)` that [`uniforms`] returns (DESIGN.md §17).
/// `ln u1` is `u1`'s exponent times `ln 2` plus the table's `ln` at the
/// nearest mantissa knot and five terms of `ln(1 + t)` about it;
/// `cos 2πu2` is the table's cos and sin at the nearest angle knot,
/// turned by `h = 2π(u2 − k/128)` with cos and sin of `h` to `h⁶` and `h⁵`.
/// It calls no libm function and divides nothing.
fn approx_box_muller(tables: &BoxMullerTables, (u1, u2): (f64, f64)) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    const ONE: u64 = 1023 << 52;
    let step = 1.0 / KNOTS as f64;
    let bits = u1.to_bits();
    let j = ((bits & MANTISSA) + (1 << 44)) >> 45;
    let (ln_knot, recip) = tables.ln[j as usize];
    let mantissa = f64::from_bits(bits & MANTISSA | ONE);
    // The subtraction is exact: the mantissa lies within half a knot
    // step of its knot.
    let t = (mantissa - (1.0 + j as f64 * step)) * recip;
    let series = t * (1.0 + t * (-0.5 + t * (1.0 / 3.0 + t * (-0.25 + t * 0.2))));
    let exponent = (bits >> 52) as i64 - 1023 + i64::from(j >= KNOTS as u64 / 2);
    let ln_u1 = exponent as f64 * LN_2 + (ln_knot + series);
    // `u2·128` is exact, and so is its distance to the nearest knot.
    let x = u2 * KNOTS as f64;
    let k = (x + 0.5) as usize;
    let (cos_k, sin_k) = tables.trig[k];
    let h = (x - k as f64) * (TAU * step);
    let h2 = h * h;
    let cos_h = 1.0 + h2 * (-0.5 + h2 * (1.0 / 24.0 - h2 * (1.0 / 720.0)));
    let sin_h = h * (1.0 + h2 * (-1.0 / 6.0 + h2 * (1.0 / 120.0)));
    (-2.0 * ln_u1).sqrt() * (cos_k * cos_h - sin_k * sin_h)
}

/// `|y|`, the noise-free position in codes, below which [`CELL_MARGIN`]
/// covers the float pipeline's rounding: `2^20` codes, far past the
/// 8- and 16-bit converters' ranges.
const Y_LIMIT: f64 = (1u64 << 20) as f64;

/// Absolute margin, in codes, kept between a noisy position and its cell's
/// edge. The quantizer's last three roundings (the add, the divide by
/// `i_fs` and the scaling to codes) and the two in `y` move a position by
/// at most `5·2^−53·|y|`, under `2^−30` below [`Y_LIMIT`]; `2^−28` also
/// covers the cell test's own roundings.
const CELL_MARGIN: f64 = 1.0 / (1u64 << 28) as f64;

/// Absolute floor under the `|cos 2πu2|` bound: the rounding of `2π` and
/// of `2π·u2` moves the argument by under `7·10^−16`, and the bound's
/// distance to `{¼, ¾}` is itself computed within `2^−54`.
const COS_FLOOR: f64 = 1.0 / (1u64 << 46) as f64;

/// `ε` of [`Adc::refine`]: its approximate sample `z̃` is within
/// `ε·(1 + |z̃|)` of the libm-computed one. The tables, the series and the
/// roundings of both samples keep the error under `3·10^−13·(1 + |z̃|)`
/// (DESIGN.md §17).
const Z_TOLERANCE: f64 = 1e-7;

/// The widest converter whose [`Adc::normalized`] values are a table:
/// `2^12 − 1` entries, 255 at the paper's 8 bits.
const VALUE_TABLE_BITS: u32 = 12;

/// Relative slack on the squared noise bound. It covers libm's `ln` and
/// `cos` (each under 1 ulp, `2^−52` relative), the `2^−53` roundings of
/// the transform, of `σ` and `σ·z`, and of the bound's own products, and
/// the radius table's rounding (under `2^−47`): about `2^−46` in all.
const BOUND_SLACK: f64 = 1.0 + 1.0 / (1u64 << 40) as f64;

/// The top 16 bits (sign, exponent, first mantissa nibble) of `2^−16`,
/// the first bin of [`radius_bounds`].
const FIRST_BIN: usize = (1023 - 16) << 4;

/// Upper bounds on `−2·ln u1`, the square of the Box–Muller radius, by
/// the top 16 bits of `u1` less [`FIRST_BIN`]. Entry `16·(16 − k) + j`
/// covers the `u1` in `[2^−k, 2^(1−k))` whose top mantissa nibble is `j`,
/// where `ln u1 ≥ −k·ln 2 + ln(1 + j/16)`, for `k` from 1 to 16. The last
/// entry, `+∞`, takes every `u1` below `2^−16`, which no bound passes.
fn radius_bounds() -> &'static [f64; 257] {
    static BOUNDS: OnceLock<[f64; 257]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = [f64::INFINITY; 257];
        for (i, bound) in bounds[..256].iter_mut().enumerate() {
            let (k, j) = (16 - i / 16, i % 16);
            *bound = 2.0 * (k as f64 * LN_2 - (1.0 + j as f64 / 16.0).ln());
        }
        bounds
    })
}

/// One call's analog-to-digital converter: `±max_code` codes over a full
/// scale of `i_fs`, and the scales and tables [`Adc::decide`] and
/// [`Adc::refine`] read.
#[derive(Debug)]
struct Adc {
    /// Full-scale current, A.
    i_fs: f64,
    max_code: i64,
    /// The full scale in dot-product terms, which a code is scaled to.
    full_scale_terms: usize,
    /// Codes per ampere, `max_code / i_fs`.
    codes_per_amp: f64,
    /// Its square times [`BOUND_SLACK`]: takes a current variance to an
    /// upper bound on the variance in codes².
    variance_scale: f64,
    /// [`radius_bounds`].
    radius: &'static [f64; 257],
    /// [`box_muller_tables`].
    tables: &'static BoxMullerTables,
    /// [`Adc::normalized`] of every code from `−max_code` up, for
    /// converters of at most [`VALUE_TABLE_BITS`] bits; empty for wider
    /// ones.
    values: Vec<f64>,
}

impl Adc {
    fn new(i_fs: f64, adc_bits: u32, full_scale_terms: usize) -> Adc {
        let max_code = (1i64 << (adc_bits - 1)) - 1;
        let codes_per_amp = max_code as f64 / i_fs;
        let mut adc = Adc {
            i_fs,
            max_code,
            full_scale_terms,
            codes_per_amp,
            variance_scale: codes_per_amp * codes_per_amp * BOUND_SLACK,
            radius: radius_bounds(),
            tables: box_muller_tables(),
            values: Vec::new(),
        };
        if adc_bits <= VALUE_TABLE_BITS {
            // Each entry is the expression's own value.
            adc.values = (-max_code..=max_code)
                .map(|code| adc.normalized(code))
                .collect();
        }
        adc
    }

    /// The code of `current` over `±` full scale: rounded half away from
    /// zero, then clamped to the code range.
    fn code(&self, current: f64) -> i64 {
        let code = ((current / self.i_fs) * self.max_code as f64).round() as i64;
        code.clamp(-self.max_code, self.max_code)
    }

    /// A code back in the normalized dot-product domain: a table read,
    /// or for a converter wider than [`VALUE_TABLE_BITS`] the divide the
    /// table was built with.
    fn normalized(&self, code: i64) -> f64 {
        match self.values.get((code + self.max_code) as usize) {
            Some(&value) => value,
            None => code as f64 / self.max_code as f64 * self.full_scale_terms as f64,
        }
    }

    /// The code of a noisy detection, `code(current + σ·z)` with `σ² =
    /// variance` and `z` the [`box_muller`] sample of `uniforms`, when a
    /// bound on `|z|` read off the uniforms already fixes it: then
    /// `(code, true)`. The noise-free position `y` sits in the cell of one
    /// integer; if `σ·|z|` cannot reach that cell's edge, less
    /// [`CELL_MARGIN`], the converter returns that integer (DESIGN.md
    /// §17). Otherwise `(_, false)`: only the exact transform can tell.
    /// The test has no branch, and a NaN fails it.
    fn decide(&self, current: f64, variance: f64, (u1, u2): (f64, f64)) -> (i64, bool) {
        let y = current * self.codes_per_amp;
        // Round half away from zero by truncation; a `y` within rounding
        // of a half-integer has no room left below.
        let cell = (y + 0.5f64.copysign(y)) as i64;
        let room = (0.5 - (y - cell as f64).abs() - CELL_MARGIN).max(0.0);
        // |z|² ≤ radius²·cos², each bound read off one uniform.
        let bin = ((u1.to_bits() >> 48) as usize)
            .wrapping_sub(FIRST_BIN)
            .min(256);
        let cos = (TAU * ((u2 - 0.5).abs() - 0.25).abs() + COS_FLOOR).min(1.0);
        let spread = variance * self.variance_scale * self.radius[bin] * (cos * cos);
        let decided = (y.abs() < Y_LIMIT) & (spread < room * room);
        (cell.clamp(-self.max_code, self.max_code), decided)
    }

    /// Tier 2, for a detection [`Adc::decide`] left pending: the code of
    /// `current + sigma·z` when the [`approx_box_muller`] sample `z̃`
    /// already fixes it, as `(code, true)`. The noisy position
    /// `p = y + s·z̃` in codes, with `s = σ·M/i_fs`, sits in the cell of
    /// one integer; if `p` is farther than `s·ε·(1 + |z̃|)` plus
    /// [`CELL_MARGIN`] from both of the cell's edges, the exact sample's
    /// position lies in that cell too (DESIGN.md §17). Otherwise
    /// `(_, false)`: only the transform can tell. As in `decide`, `|y|`
    /// must be under [`Y_LIMIT`], the test has no branch, and a NaN
    /// fails it.
    fn refine(&self, current: f64, sigma: f64, uniforms: (f64, f64)) -> (i64, bool) {
        let y = current * self.codes_per_amp;
        let s = sigma * self.codes_per_amp;
        let z = approx_box_muller(self.tables, uniforms);
        let p = y + s * z;
        let cell = (p + 0.5f64.copysign(p)) as i64;
        let room = 0.5 - (p - cell as f64).abs();
        let margin = s * (Z_TOLERANCE * (1.0 + z.abs())) + CELL_MARGIN;
        let decided = (y.abs() < Y_LIMIT) & (room > margin);
        (cell.clamp(-self.max_code, self.max_code), decided)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albireo_tensor::conv::conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(cfg: AnalogSimConfig) -> AnalogEngine {
        AnalogEngine::new(&ChipConfig::albireo_9(), cfg)
    }

    fn random_case(seed: u64, z: usize, n: usize) -> (Tensor3, Tensor4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(z, n, n, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(4, z, 3, 3, 0.3, &mut rng);
        (input, kernels)
    }

    #[test]
    fn ideal_conv_matches_reference_closely() {
        let (input, kernels) = random_case(1, 3, 8);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let eng = engine(AnalogSimConfig::ideal());
        let analog = eng.conv2d(&input, &kernels, &spec);
        let full_scale = input.max_abs() * kernels.max_abs() * 27.0;
        let err = analog.max_abs_diff(&reference) / full_scale;
        // Only 16-bit ADC quantization remains: error well below 0.1%.
        assert!(err < 1e-3, "relative error {err}");
    }

    #[test]
    fn realistic_conv_matches_within_predicted_precision() {
        let (input, kernels) = random_case(2, 6, 8);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let eng = engine(AnalogSimConfig::default());
        let bits = eng.expected_bits();
        assert!(bits > 5.0, "predicted bits = {bits}");
        let analog = eng.conv2d(&input, &kernels, &spec);
        // Error budget: the predicted precision per detected partial,
        // accumulated over ⌈Wz/Nu⌉ = 2 cycles, against the per-cycle full
        // scale.
        let full_scale = input.max_abs() * kernels.max_abs() * 27.0;
        let cycles = 2.0;
        let budget = cycles * full_scale / 2f64.powf(bits - 1.0);
        let err = analog.max_abs_diff(&reference);
        assert!(
            err < budget,
            "error {err} exceeds budget {budget} (bits = {bits})"
        );
    }

    #[test]
    fn noise_only_errors_are_small() {
        let (input, kernels) = random_case(3, 3, 6);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let cfg = AnalogSimConfig {
            enable_crosstalk: false,
            adc_bits: 12,
            ..AnalogSimConfig::default()
        };
        let eng = engine(cfg);
        let analog = eng.conv2d(&input, &kernels, &spec);
        let full_scale = input.max_abs() * kernels.max_abs() * 27.0;
        let err = analog.max_abs_diff(&reference) / full_scale;
        assert!(err < 0.02, "relative error {err}");
    }

    #[test]
    fn crosstalk_biases_are_bounded() {
        let (input, kernels) = random_case(4, 3, 6);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let cfg = AnalogSimConfig {
            enable_noise: false,
            adc_bits: 16,
            ..AnalogSimConfig::default()
        };
        let eng = engine(cfg);
        let analog = eng.conv2d(&input, &kernels, &spec);
        let full_scale = input.max_abs() * kernels.max_abs() * 27.0;
        let err = analog.max_abs_diff(&reference) / full_scale;
        // Worst-case aggregate crosstalk for 21 λ at k² = 0.03 is a few
        // percent of full scale.
        assert!(err < 0.05, "relative error {err}");
        assert!(err > 0.0, "crosstalk should perturb the result");
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let (input, kernels) = random_case(5, 3, 6);
        let spec = ConvSpec::unit();
        let a = engine(AnalogSimConfig::default()).conv2d(&input, &kernels, &spec);
        let b = engine(AnalogSimConfig::default()).conv2d(&input, &kernels, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ_with_noise() {
        let (input, kernels) = random_case(6, 3, 6);
        let spec = ConvSpec::unit();
        let a = engine(AnalogSimConfig::default()).conv2d(&input, &kernels, &spec);
        let cfg2 = AnalogSimConfig {
            seed: 99,
            ..AnalogSimConfig::default()
        };
        let b = engine(cfg2).conv2d(&input, &kernels, &spec);
        assert!(a.max_abs_diff(&b) > 0.0);
    }

    #[test]
    fn strided_conv_supported() {
        let (input, kernels) = random_case(7, 3, 9);
        let spec = ConvSpec::new(2, 0);
        let reference = conv2d(&input, &kernels, &spec);
        let eng = engine(AnalogSimConfig::ideal());
        let analog = eng.conv2d(&input, &kernels, &spec);
        assert_eq!(analog.dims(), reference.dims());
        let full_scale = input.max_abs() * kernels.max_abs() * 27.0;
        assert!(analog.max_abs_diff(&reference) / full_scale < 1e-3);
    }

    #[test]
    fn fc_dot_matches_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let a: Vec<f64> = (0..100).map(|_| rng.random::<f64>()).collect();
        let w: Vec<f64> = (0..100).map(|_| rng.random::<f64>() - 0.5).collect();
        let reference: f64 = a.iter().zip(w.iter()).map(|(x, y)| x * y).sum();
        let eng = engine(AnalogSimConfig::ideal());
        let analog = eng.dot(&a, &w);
        let a_max = a.iter().cloned().fold(0.0_f64, f64::max);
        let w_max = w.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
        let full_scale = a_max * w_max * 27.0;
        assert!(
            (analog - reference).abs() / full_scale < 1e-3,
            "analog {analog} vs reference {reference}"
        );
    }

    #[test]
    fn zero_inputs_give_zero_output() {
        let input = Tensor3::zeros(3, 6, 6);
        let kernels = Tensor4::filled(2, 3, 3, 3, 0.5);
        let eng = engine(AnalogSimConfig::default());
        let out = eng.conv2d(&input, &kernels, &ConvSpec::unit());
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_inputs_rejected() {
        let input = Tensor3::filled(1, 4, 4, -1.0);
        let kernels = Tensor4::filled(1, 1, 3, 3, 0.5);
        let eng = engine(AnalogSimConfig::default());
        let _ = eng.conv2d(&input, &kernels, &ConvSpec::unit());
    }

    #[test]
    fn channel_power_is_microwatt_scale() {
        let eng = engine(AnalogSimConfig::default());
        let p = eng.channel_power_w();
        assert!(p > 1e-7 && p < 1e-3, "p = {p}");
    }

    #[test]
    fn expected_bits_reasonable() {
        let eng = engine(AnalogSimConfig::default());
        let bits = eng.expected_bits();
        // §II-C2: 7 bits is the design's worst-case target.
        assert!((5.0..10.0).contains(&bits), "bits = {bits}");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use albireo_tensor::conv::conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn case(seed: u64) -> (Tensor3, Tensor4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(3, 8, 8, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 3, 3, 3, 0.3, &mut rng);
        (input, kernels)
    }

    fn engine(cfg: AnalogSimConfig) -> AnalogEngine {
        AnalogEngine::new(&ChipConfig::albireo_9(), cfg)
    }

    #[test]
    fn crosstalk_compensation_recovers_precision() {
        let (input, kernels) = case(101);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        let base_cfg = AnalogSimConfig {
            enable_noise: false,
            adc_bits: 16,
            ..AnalogSimConfig::default()
        };
        let uncompensated = engine(base_cfg).conv2d(&input, &kernels, &spec);
        let comp_cfg = AnalogSimConfig {
            crosstalk_compensation: true,
            ..base_cfg
        };
        let compensated = engine(comp_cfg).conv2d(&input, &kernels, &spec);
        let err_raw = uncompensated.max_abs_diff(&reference) / fs;
        let err_comp = compensated.max_abs_diff(&reference) / fs;
        assert!(
            err_comp < err_raw / 10.0,
            "compensation should cut error >10x: {err_raw} -> {err_comp}"
        );
    }

    #[test]
    fn compensation_still_helps_under_noise() {
        // Compensation removes the deterministic crosstalk bias but not
        // the stochastic receiver noise, so compare *mean* absolute error
        // aggregated over several noise seeds — a single draw's max error
        // can land wherever the noise happens to spike.
        let (input, kernels) = case(102);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let mean_err = |compensate: bool| {
            let mut total = 0.0;
            let mut count = 0usize;
            for seed in [11u64, 22, 33] {
                let cfg = AnalogSimConfig {
                    crosstalk_compensation: compensate,
                    seed,
                    ..AnalogSimConfig::default()
                };
                let out = engine(cfg).conv2d(&input, &kernels, &spec);
                for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
                    total += (a - b).abs();
                    count += 1;
                }
            }
            total / count as f64
        };
        let err_raw = mean_err(false);
        let err_comp = mean_err(true);
        assert!(err_comp < err_raw, "{err_comp} vs {err_raw}");
    }

    #[test]
    fn dead_ring_degrades_one_output_column_family() {
        let (input, kernels) = case(103);
        let spec = ConvSpec::unit();
        let healthy = engine(AnalogSimConfig::ideal());
        let clean = healthy.conv2d(&input, &kernels, &spec);
        let mut faulty = engine(AnalogSimConfig::ideal());
        let mut faults = FaultSet::new();
        faults.push(Fault::DeadRing {
            row: 1,
            col: 1,
            output: 2,
        });
        faulty.inject_faults(faults);
        let broken = faulty.conv2d(&input, &kernels, &spec);
        assert!(broken.max_abs_diff(&clean) > 0.0, "fault must be visible");
        // Only output columns congruent to 2 mod Nd are affected.
        let (_, by, bx) = clean.dims();
        for m in 0..2 {
            for y in 0..by {
                for x in 0..bx {
                    let diff = (clean[(m, y, x)] - broken[(m, y, x)]).abs();
                    if x % 5 != 2 {
                        assert!(diff < 1e-9, "column {x} should be clean, diff {diff}");
                    }
                }
            }
        }
    }

    #[test]
    fn stuck_mzm_biases_everything_it_touches() {
        let (input, kernels) = case(104);
        let spec = ConvSpec::unit();
        let clean = engine(AnalogSimConfig::ideal()).conv2d(&input, &kernels, &spec);
        let mut faulty = engine(AnalogSimConfig::ideal());
        let mut faults = FaultSet::new();
        faults.push(Fault::StuckMzm {
            row: 0,
            col: 0,
            weight: 1.0,
        });
        faulty.inject_faults(faults);
        let broken = faulty.conv2d(&input, &kernels, &spec);
        assert!(broken.max_abs_diff(&clean) > 1e-3);
    }

    #[test]
    fn dead_channel_loses_signal() {
        let (input, kernels) = case(105);
        let spec = ConvSpec::unit();
        let clean = engine(AnalogSimConfig::ideal()).conv2d(&input, &kernels, &spec);
        let mut faulty = engine(AnalogSimConfig::ideal());
        let mut faults = FaultSet::new();
        faults.push(Fault::DeadChannel { column: 0 });
        faulty.inject_faults(faults);
        let broken = faulty.conv2d(&input, &kernels, &spec);
        assert!(broken.max_abs_diff(&clean) > 1e-3);
    }

    #[test]
    fn clear_faults_restores_health() {
        let (input, kernels) = case(106);
        let spec = ConvSpec::unit();
        let mut eng = engine(AnalogSimConfig::ideal());
        let clean = eng.conv2d(&input, &kernels, &spec);
        let mut faults = FaultSet::new();
        faults.push(Fault::DeadChannel { column: 1 });
        eng.inject_faults(faults);
        assert_eq!(eng.faults().len(), 1);
        eng.inject_faults(FaultSet::new());
        assert!(eng.faults().is_empty());
        let recovered = eng.conv2d(&input, &kernels, &spec);
        assert!(recovered.max_abs_diff(&clean) < 1e-12);
    }

    #[test]
    fn more_faults_more_error() {
        let (input, kernels) = case(107);
        let spec = ConvSpec::unit();
        let clean = engine(AnalogSimConfig::ideal()).conv2d(&input, &kernels, &spec);
        let mut errs = Vec::new();
        for n_faults in [1usize, 3, 6] {
            let mut eng = engine(AnalogSimConfig::ideal());
            let mut faults = FaultSet::new();
            for i in 0..n_faults {
                faults.push(Fault::DeadRing {
                    row: i % 3,
                    col: i % 3,
                    output: i % 5,
                });
            }
            eng.inject_faults(faults);
            let broken = eng.conv2d(&input, &kernels, &spec);
            errs.push(broken.max_abs_diff(&clean));
        }
        assert!(errs[0] <= errs[1] && errs[1] <= errs[2], "{errs:?}");
    }
}

#[cfg(test)]
mod decomposition_tests {
    use super::*;
    use albireo_tensor::conv::{conv2d, conv2d_grouped};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> AnalogEngine {
        AnalogEngine::new(&ChipConfig::albireo_9(), AnalogSimConfig::ideal())
    }

    #[test]
    fn five_by_five_kernel_decomposes_correctly() {
        let mut rng = StdRng::seed_from_u64(201);
        let input = Tensor3::random_uniform(2, 10, 10, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 2, 5, 5, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let analog = engine().conv2d(&input, &kernels, &spec);
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        let err = analog.max_abs_diff(&reference) / fs;
        // 3 passes of 16-bit quantization: still well under 0.5%.
        assert!(err < 5e-3, "relative error {err}");
    }

    #[test]
    fn alexnet_conv1_shape_11x11_stride_4() {
        let mut rng = StdRng::seed_from_u64(203);
        let input = Tensor3::random_uniform(3, 19, 19, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 3, 11, 11, 0.1, &mut rng);
        let spec = ConvSpec::new(4, 0);
        let reference = conv2d(&input, &kernels, &spec);
        let analog = engine().conv2d(&input, &kernels, &spec);
        assert_eq!(analog.dims(), reference.dims());
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        assert!(analog.max_abs_diff(&reference) / fs < 2e-2);
    }

    #[test]
    fn grouped_analog_matches_grouped_reference() {
        let mut rng = StdRng::seed_from_u64(204);
        let input = Tensor3::random_uniform(4, 8, 8, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(4, 2, 3, 3, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let reference = conv2d_grouped(&input, &kernels, &spec, 2);
        let analog = engine().conv2d_grouped(&input, &kernels, &spec, 2);
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        assert!(analog.max_abs_diff(&reference) / fs < 1e-3);
    }

    #[test]
    fn one_group_equals_direct() {
        let mut rng = StdRng::seed_from_u64(205);
        let input = Tensor3::random_uniform(2, 6, 6, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 2, 3, 3, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let a = engine().conv2d_grouped(&input, &kernels, &spec, 1);
        let b = engine().conv2d(&input, &kernels, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn wide_single_row_kernel_decomposes_by_columns() {
        let mut rng = StdRng::seed_from_u64(206);
        let input = Tensor3::random_uniform(1, 4, 16, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(1, 1, 1, 11, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let analog = engine().conv2d(&input, &kernels, &spec);
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        assert!(analog.max_abs_diff(&reference) / fs < 5e-3);
    }
}

#[cfg(test)]
mod allocation_tests {
    use super::*;
    use albireo_tensor::conv::conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interleaved_allocation_reduces_crosstalk_error() {
        let chip = ChipConfig::albireo_9();
        let mut rng = StdRng::seed_from_u64(301);
        let input = Tensor3::random_uniform(3, 10, 10, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 3, 3, 3, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        let run = |allocation: ChannelAllocation| {
            let cfg = AnalogSimConfig {
                enable_noise: false,
                adc_bits: 16,
                allocation,
                ..AnalogSimConfig::default()
            };
            let e = AnalogEngine::new(&chip, cfg);
            e.conv2d(&input, &kernels, &spec).max_abs_diff(&reference) / fs
        };
        let contiguous = run(ChannelAllocation::Contiguous);
        let interleaved = run(ChannelAllocation::RowInterleaved);
        assert!(
            interleaved < contiguous / 3.0,
            "interleaving should cut crosstalk >3x: {contiguous} -> {interleaved}"
        );
    }

    #[test]
    fn allocation_is_irrelevant_without_crosstalk() {
        let chip = ChipConfig::albireo_9();
        let mut rng = StdRng::seed_from_u64(302);
        let input = Tensor3::random_uniform(2, 6, 6, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(1, 2, 3, 3, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let a = AnalogEngine::new(
            &chip,
            AnalogSimConfig {
                allocation: ChannelAllocation::Contiguous,
                ..AnalogSimConfig::ideal()
            },
        );
        let b = AnalogEngine::new(
            &chip,
            AnalogSimConfig {
                allocation: ChannelAllocation::RowInterleaved,
                ..AnalogSimConfig::ideal()
            },
        );
        assert_eq!(
            a.conv2d(&input, &kernels, &spec),
            b.conv2d(&input, &kernels, &spec)
        );
    }
}

#[cfg(test)]
mod plane_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every input the planes read: uniform values with exact `0.0` and
    /// `−0.0` elements mixed in, and one group left all zero when there
    /// are two.
    fn input(rng: &mut StdRng, az: usize, ay: usize, ax: usize, groups: usize) -> Tensor3 {
        let mut input = Tensor3::random_uniform(az, ay, ax, 0.0, 1.0, rng);
        for a in input.as_mut_slice() {
            match rng.random::<u64>() % 6 {
                0 => *a = 0.0,
                1 => *a = -0.0,
                _ => {}
            }
        }
        if groups > 1 {
            let per_group = az / groups * ay * ax;
            for a in &mut input.as_mut_slice()[per_group..2 * per_group] {
                *a = if rng.random::<bool>() { 0.0 } else { -0.0 };
            }
        }
        input
    }

    /// The planes by their per-entry definition: for each channel, block,
    /// padded row and ring `t`, a sum over the block's multicast columns
    /// `c` in ascending order that skips dead columns and zero
    /// coefficients. Returns `(plane, ideal, leak)`.
    fn reference(
        engine: &AnalogEngine,
        input: &Tensor3,
        (wy, wx): (usize, usize),
        spec: &ConvSpec,
        groups: usize,
    ) -> (Vec<f64>, Option<Vec<f64>>, Option<Vec<f64>>) {
        let (az, ay, ax) = input.dims();
        let (stride, pad) = (spec.stride, spec.padding);
        let by = output_extent(ay, wy, pad, stride);
        let bx = output_extent(ax, wx, pad, stride);
        let nd_eff = if stride == 1 { engine.chip.plcu.nd } else { 1 };
        let row_len = nd_eff + wx - 1;
        let blocks = bx.div_ceil(nd_eff);
        let (py, px) = ((by - 1) * stride + wy, (bx - 1) * stride + wx);
        let wz = az / groups;
        let a_max: Vec<f64> = (0..groups)
            .map(|g| {
                (g * wz..(g + 1) * wz)
                    .flat_map(|z| (0..ay).flat_map(move |y| (0..ax).map(move |x| (z, y, x))))
                    .fold(0.0_f64, |m, i| m.max(input[i].abs()))
            })
            .collect();
        // The normalized input at padded coordinates.
        let a = |z: usize, y: usize, x: usize| match (y.checked_sub(pad), x.checked_sub(pad)) {
            (Some(y), Some(x)) if y < ay && x < ax && a_max[z / wz] != 0.0 => {
                input[(z, y, x)] / a_max[z / wz]
            }
            _ => 0.0,
        };
        let dead = |c: usize| engine.faults.channel_dead(c);
        let build = |entry: &dyn Fn(usize, usize, usize, usize, usize) -> f64| {
            let mut plane = vec![0.0; az * blocks * py * row_len];
            for z in 0..az {
                for block in 0..blocks {
                    let x0 = block * nd_eff * stride;
                    let len = row_len.min(px - x0);
                    for y in 0..py {
                        for t in 0..len {
                            plane[((z * blocks + block) * py + y) * row_len + t] =
                                entry(z, y, x0, len, t);
                        }
                    }
                }
            }
            plane
        };
        let dropped = |enabled: bool| {
            build(&|z, y, x0, len, t| {
                let mut sum = 0.0;
                for c in 0..len {
                    if dead(c) {
                        continue;
                    }
                    let x = engine.crosstalk(c as isize - t as isize, enabled);
                    if x != 0.0 {
                        sum += x * a(z, y, x0 + c);
                    }
                }
                sum
            })
        };
        let crosstalk = engine.cfg.enable_crosstalk;
        let ideal = (crosstalk && engine.cfg.crosstalk_compensation).then(|| dropped(false));
        let leak = crosstalk.then(|| {
            build(&|z, y, x0, _, c| {
                if dead(c) {
                    0.0
                } else {
                    a(z, y, x0 + c)
                }
            })
        });
        (dropped(crosstalk), ideal, leak)
    }

    fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            panic!("{what}[{i}]: {:e} != reference {:e}", got[i], want[i]);
        }
    }

    #[test]
    fn planes_match_the_per_entry_formula_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x91A7E);
        // (groups, channels, input extent, kernel, stride, padding): a
        // short last block at stride 1, strides above 1, a kernel wider
        // than `Nm` and a pointwise one, two groups with one all zero.
        let shapes = [
            (1, 3, (8, 8), (3, 3), 1, 1),
            (1, 2, (7, 12), (3, 3), 1, 0),
            (1, 2, (9, 9), (3, 3), 2, 0),
            (1, 2, (11, 11), (5, 5), 3, 2),
            (1, 3, (4, 7), (1, 1), 1, 0),
            (1, 1, (6, 14), (5, 5), 1, 2),
            (2, 4, (6, 9), (3, 3), 1, 1),
        ];
        let modes = [(false, false), (true, false), (true, true), (false, true)];
        let dead_sets: [&[usize]; 3] = [&[], &[3], &[0, 6, 40]];
        let allocations = [
            ChannelAllocation::Contiguous,
            ChannelAllocation::RowInterleaved,
        ];
        for &(groups, az, (ay, ax), (wy, wx), stride, padding) in &shapes {
            let spec = ConvSpec::new(stride, padding);
            let input = input(&mut rng, az, ay, ax, groups);
            let kernels = Tensor4::random_gaussian(2 * groups, az / groups, wy, wx, 0.3, &mut rng);
            for (crosstalk, compensation) in modes {
                for allocation in allocations {
                    for dead in dead_sets {
                        let cfg = AnalogSimConfig {
                            enable_crosstalk: crosstalk,
                            crosstalk_compensation: compensation,
                            allocation,
                            ..AnalogSimConfig::default()
                        };
                        let mut engine = AnalogEngine::new(&ChipConfig::albireo_9(), cfg);
                        let mut faults = FaultSet::new();
                        for &column in dead {
                            faults.push(Fault::DeadChannel { column });
                        }
                        engine.inject_faults(faults);
                        let plan = ConvPlan::new(&engine, &input, &kernels, &spec, groups);
                        let (plane, ideal, leak) =
                            reference(&engine, &input, (wy, wx), &spec, groups);
                        let case = format!(
                            "{groups}×{az}×{ay}×{ax} * {wy}×{wx} stride {stride} pad {padding}, \
                             crosstalk {crosstalk} compensation {compensation} {allocation:?} \
                             dead {dead:?}"
                        );
                        assert_bits(&format!("plane ({case})"), &plan.plane, &plane);
                        assert_eq!(plan.ideal.is_some(), ideal.is_some(), "ideal ({case})");
                        if let (Some(got), Some(want)) = (&plan.ideal, &ideal) {
                            assert_bits(&format!("ideal ({case})"), got, want);
                        }
                        assert_eq!(plan.leak.is_some(), leak.is_some(), "leak ({case})");
                        if let (Some(got), Some(want)) = (&plan.leak, &leak) {
                            assert_bits(&format!("leak ({case})"), got, want);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod adc_props {
    //! [`Adc::decide`] and [`Adc::refine`] against the exact transform
    //! they skip: whenever either decides a code, that code must be the
    //! converter's code of the Box–Muller sample, for 8-, 16- and 63-bit
    //! converters, random operands and the edges of every bound and
    //! table.

    use super::*;
    use proptest::test_runner::{run, TestCaseError};
    use proptest::TestRng;

    /// One detection: converter, noise-free position in codes, noise σ in
    /// codes, and the pair of uniforms.
    #[derive(Debug)]
    struct Case {
        adc_bits: u32,
        i_fs: f64,
        y: f64,
        sigma: f64,
        uniforms: (f64, f64),
    }

    /// A draw from `[lo, hi)`.
    fn between(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * rng.unit_f64()
    }

    /// One of `n` choices.
    fn pick(rng: &mut TestRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    /// `x` moved by up to `ulps` floats either way.
    fn nudge(rng: &mut TestRng, x: f64, ulps: u64) -> f64 {
        let (up, steps) = (pick(rng, 2) == 0, pick(rng, ulps + 1));
        (0..steps).fold(x, |x, _| if up { x.next_up() } else { x.next_down() })
    }

    /// A `u1` above `f64::MIN_POSITIVE` and below 1: at and just below
    /// powers of two, near `f64::MIN_POSITIVE`, within a few ulps of 1 or
    /// `10^−15` to `10^−1` below it, within a few ulps of an `ln` knot of
    /// [`BoxMullerTables`] or of the point halfway between two knots where
    /// the nearest knot changes, or as the generator draws it.
    fn u1(rng: &mut TestRng) -> f64 {
        let k = 1 + pick(rng, 60) as i32;
        match pick(rng, 6) {
            0 => 2f64.powi(-k),
            1 => 2f64.powi(-k).next_down(),
            2 => f64::MIN_POSITIVE * between(rng, 1.0, 4.0).next_up(),
            3 if pick(rng, 2) == 0 => 1.0 - (1 + pick(rng, 4)) as f64 * (f64::EPSILON / 2.0),
            3 => 1.0 - 10f64.powf(between(rng, -15.0, -1.0)),
            4 => {
                let j = pick(rng, KNOTS as u64 + 1) as f64;
                let half = if pick(rng, 2) == 0 { 0.0 } else { 0.5 };
                let mantissa = (1.0 + (j + half) / KNOTS as f64).min(2.0);
                nudge(rng, mantissa * 2f64.powi(-k), 3).min(1.0f64.next_down())
            }
            // As the generator draws it, a multiple of 2^−53, not 0.
            _ => rng.unit_f64().max(f64::EPSILON / 2.0),
        }
    }

    /// A `u2` in `[0, 1)`: at 0, ¼, ½ and ¾ or one ulp off, at a cos knot
    /// `k/128` of [`BoxMullerTables`] or halfway between two, one ulp
    /// off, or as the generator draws it.
    fn u2(rng: &mut TestRng) -> f64 {
        match pick(rng, 3) {
            0 => {
                let at: f64 = [0.0, 0.25, 0.5, 0.75][pick(rng, 4) as usize];
                nudge(rng, at, 1).max(0.0)
            }
            1 => {
                let knot = (pick(rng, 2 * KNOTS as u64) as f64) / (2 * KNOTS) as f64;
                nudge(rng, knot, 1).max(0.0)
            }
            _ => rng.unit_f64(),
        }
    }

    fn case(rng: &mut TestRng) -> Case {
        // The 63-bit converter's range reaches past `Y_LIMIT`.
        let adc_bits = [8, 16, 63][pick(rng, 3) as usize];
        let max_code = ((1i64 << (adc_bits - 1)) - 1) as f64;
        let i_fs = 10f64.powf(between(rng, -7.0, -1.0));
        let sign = if pick(rng, 2) == 0 { 1.0 } else { -1.0 };
        let y = match pick(rng, 4) {
            // Anywhere in the range and a little past it.
            0 => between(rng, -1.2, 1.2) * max_code,
            // Within 1e−12 to 1e−6 of a half-integer, either side.
            1 => {
                let n = (between(rng, -1.1, 1.1) * max_code).floor();
                n + 0.5 + sign * 10f64.powf(between(rng, -12.0, -6.0))
            }
            // Up to 2^50, past `Y_LIMIT` and all but the 63-bit code
            // range: one to three floats from a half-integer, where the
            // quantizer's roundings are as wide as the gap.
            2 => {
                let mut y = (sign * 2f64.powf(between(rng, 7.0, 50.0))).floor() + 0.5;
                let up = pick(rng, 2) == 0;
                for _ in 0..=pick(rng, 3) {
                    y = if up { y.next_up() } else { y.next_down() };
                }
                y
            }
            // Near an integer, zero included.
            _ => {
                let n = (between(rng, -1.0, 1.0) * max_code).round();
                n + sign * 10f64.powf(between(rng, -16.0, -1.0))
            }
        };
        let uniforms = (u1(rng), u2(rng));
        let z = box_muller(uniforms);
        let sigma = match pick(rng, 10) {
            0 => 0.0,
            // `σ·|z|` at the distance to the nearer cell edge, within
            // 1e−12 to 1e−3 relative, either side.
            1 | 2 => {
                let edge = 0.5 - (y - y.round()).abs();
                edge / z.abs() * (1.0 + sign * 10f64.powf(between(rng, -12.0, -3.0)))
            }
            // The noisy position `y + σ·z` within 1e−12 to 1e−6 of a
            // half-integer on the noise's side, either side of it: one of
            // the first three, or one up to 2^24 cells away, where tier
            // 2's `σ·ε` term outgrows the cell margin.
            3 | 4 => {
                let cells = if pick(rng, 2) == 0 {
                    pick(rng, 3) as f64
                } else {
                    2f64.powf(between(rng, 0.0, 24.0)).floor()
                };
                let edge = if z > 0.0 {
                    (y + 0.5).floor() + 0.5 + cells
                } else {
                    (y - 0.5).ceil() - 0.5 - cells
                };
                let target = edge + sign * 10f64.powf(between(rng, -12.0, -6.0));
                ((target - y) / z).abs()
            }
            _ => 10f64.powf(between(rng, -4.0, 0.5)),
        };
        Case {
            adc_bits,
            i_fs,
            y,
            sigma,
            uniforms,
        }
    }

    /// Which tier fixed a case's code.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Tier {
        /// [`Adc::decide`].
        Bound,
        /// [`Adc::refine`], for a case the bound left pending.
        Refined,
        /// Neither: the transform.
        Libm,
    }

    /// Checks one case against both tiers, each on its own, and returns
    /// the tier that fixes its code in the engine's order.
    fn check(case: &Case) -> Result<Tier, TestCaseError> {
        let adc = Adc::new(case.i_fs, case.adc_bits, 27);
        let current = case.y / adc.codes_per_amp;
        let variance = (case.sigma / adc.codes_per_amp).powi(2);
        let sigma = variance.sqrt();
        let exact = adc.code(current + sigma * box_muller(case.uniforms));
        let (bound, decided) = adc.decide(current, variance, case.uniforms);
        let (refined, by_tier_2) = adc.refine(current, sigma, case.uniforms);
        for (tier, code, fixed) in [("bound", bound, decided), ("tier 2", refined, by_tier_2)] {
            if fixed && code != exact {
                return Err(TestCaseError::fail(format!(
                    "the {tier} gave {code}, the transform {exact}"
                )));
            }
        }
        Ok(match (decided, by_tier_2) {
            (true, _) => Tier::Bound,
            (false, true) => Tier::Refined,
            (false, false) => Tier::Libm,
        })
    }

    #[test]
    fn a_decided_code_is_the_exact_code() {
        let mut tiers = [0u64; 3];
        run("a_decided_code_is_the_exact_code", |rng| {
            let case = case(rng);
            let outcome = check(&case).map(|tier| tiers[tier as usize] += 1);
            (outcome, format!("{case:?}"))
        });
        assert!(
            tiers.iter().all(|&n| n > 0),
            "all three outcomes must occur: {} by the bound, {} by tier 2, {} by the transform",
            tiers[0],
            tiers[1],
            tiers[2]
        );
    }

    /// The bound DESIGN.md §17 proves on [`approx_box_muller`]'s error,
    /// in units of `1 + |z̃|`: a few hundred-thousandths of
    /// [`Z_TOLERANCE`].
    const APPROX_ERROR: f64 = 3e-13;

    #[test]
    fn the_approximate_sample_is_within_its_tolerance() {
        let tables = box_muller_tables();
        run("the_approximate_sample_is_within_its_tolerance", |rng| {
            let uniforms = (u1(rng), u2(rng));
            let (approx, exact) = (approx_box_muller(tables, uniforms), box_muller(uniforms));
            let outcome = if (approx - exact).abs() <= APPROX_ERROR * (1.0 + approx.abs()) {
                Ok(())
            } else {
                Err(TestCaseError::fail(format!("{approx:e} vs {exact:e}")))
            };
            (outcome, format!("{uniforms:?}"))
        });
    }
}
