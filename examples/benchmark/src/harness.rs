//! The run loop every workload shares: a first set-up batch, one untimed
//! warm-up unit, timed units for the requested seconds (each followed by
//! another set-up batch), an optional traced phase, then the output
//! checks.
//!
//! Every time this benchmark reports comes from its own spans around
//! calls into the library's public functions. The traced phase also
//! turns on the library's existing `albireo_obs::profile` scopes; its
//! units are timed apart from the untraced ones, and the ratio of the two
//! medians is the tracing overhead.
//!
//! # Reference seconds
//!
//! The hosts this benchmark runs on are shared. For minutes at a time,
//! other tenants slow every instruction stream in the machine, by up to
//! 2×. A median over more units cannot remove a slowdown that lasts
//! longer than the run. So each timed call is bracketed by a fixed
//! calibration loop ([`Clock`]), and its time is reported in *reference
//! seconds*: its host seconds × [`CAL_REF_S`] ÷ the mean of the
//! calibration times just before and just after it. On a quiet host the
//! two agree. Under contention the calibration slows with the call, and
//! the ratio moves much less than either. Host seconds are still reported, as
//! `bench.raw_wall_s`, and so is the host's speed, as `bench.host_speed`.

use crate::report::{Check, Metrics};
use albireo_obs::{profile, ProfileReport};
use std::time::{Duration, Instant};

/// The seed the pinned digests were recorded at.
pub const DEFAULT_SEED: u64 = 42;

/// Threads every timed unit runs on. On a shared host a multi-threaded
/// unit waits for the slowest of its cores, and its time spreads too
/// widely between runs to gate on.
pub const THREADS: usize = 1;

/// About the host seconds of one calibration loop on the quiet 2-core
/// development host (Xeon, 2.0 GHz); it sets the scale of reference
/// seconds, so that on that host they read as host seconds.
const CAL_REF_S: f64 = 1.5e-3;

/// Fewest timed units a run makes, however short `--seconds` is, so the
/// quartiles always have data.
const MIN_TIMED_UNITS: usize = 3;
/// Fewest traced units a traced run makes.
const MIN_TRACED_UNITS: usize = 2;
/// Repeats behind each untimed per-layer measurement.
const REPEATS: usize = 3;
/// The first set-up batch builds the workload this many times.
const SETUP_FIRST_REPS: usize = 5;
/// After each timed unit, set-up is measured again for this share of
/// the unit's host time (at least once). Contention comes and goes over
/// tens of seconds, so set-up is sampled across the whole run, not only
/// at its start; each batch's median is one `setup_s` sample.
const SETUP_SHARE: f64 = 0.05;

/// The calibration loop: xorshift draws driving random read-modify-writes
/// over a 256 KiB table and a chain of `ln`/`sqrt`/`cos`, the mix of
/// integer, memory and transcendental work the simulator does. Returns
/// its host seconds.
fn calibration_loop(table: &mut [u64]) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 1.0_f64;
    let t0 = Instant::now();
    for _ in 0..60_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(x);
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        acc = (acc + u.ln().abs().sqrt() * (std::f64::consts::TAU * u).cos()) * 0.5;
    }
    std::hint::black_box((table, acc));
    t0.elapsed().as_secs_f64()
}

/// The host-speed clock: converts host seconds of a call into reference
/// seconds using calibrations taken on either side of it.
pub struct Clock {
    /// The calibration loop's table, allocated and touched once so that
    /// no page fault lands inside a calibration.
    table: Vec<u64>,
    /// The most recent calibration, s.
    last: f64,
    /// Every calibration taken, s.
    samples: Vec<f64>,
    /// Host seconds spent calibrating.
    spent: f64,
}

impl Clock {
    fn new() -> Clock {
        let mut clock = Clock {
            table: vec![1; 1 << 15],
            last: 0.0,
            samples: Vec::new(),
            spent: 0.0,
        };
        clock.calibrate();
        clock
    }

    /// Runs the calibration loop on the calling thread, the one every
    /// timed call runs on.
    fn calibrate(&mut self) -> f64 {
        let t0 = Instant::now();
        let cal = calibration_loop(&mut self.table);
        self.spent += t0.elapsed().as_secs_f64();
        self.samples.push(cal);
        self.last = cal;
        cal
    }

    /// Reference seconds per host second, from the calibrations around
    /// an interval: the one taken before it and `after`.
    fn scale(before: f64, after: f64) -> f64 {
        2.0 * CAL_REF_S / (before + after)
    }

    /// Runs `f`; returns its output, host seconds and reference seconds.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.last;
        let t0 = Instant::now();
        let out = f();
        let raw = t0.elapsed().as_secs_f64();
        let after = self.calibrate();
        (out, raw, raw * Clock::scale(before, after))
    }

    /// The median of [`REPEATS`] measurements of `f`, in reference
    /// seconds: for the untimed per-layer measurements.
    pub fn median_of(&mut self, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..REPEATS).map(|_| self.measure(&mut f).2).collect();
        crate::stats::median(&samples).expect("at least one repeat")
    }
}

/// The library calls of one unit, in reference seconds, keyed by the
/// per-layer metric each total feeds.
pub struct Spans<'c> {
    clock: &'c mut Clock,
    totals: Vec<(&'static str, f64)>,
    raw: f64,
    reference: f64,
}

impl Spans<'_> {
    /// Times one library call, crediting it to each of `names` (a call
    /// may count toward a layer, a network and an operator family).
    pub fn time<T>(&mut self, names: &[&'static str], f: impl FnOnce() -> T) -> T {
        let (out, raw, reference) = self.clock.measure(f);
        self.raw += raw;
        self.reference += reference;
        for &name in names {
            match self.totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += reference,
                None => self.totals.push((name, reference)),
            }
        }
        out
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Work one unit performs: nominal MACs, simulated requests, or
    /// planner candidates.
    fn items_per_unit(&self) -> f64;

    /// Distinct inputs the units cycle through: unit `i` runs input
    /// `i % input_cycle()`, and must reproduce the digest of the first
    /// unit that ran the same input.
    fn input_cycle(&self) -> usize {
        1
    }

    /// Runs unit `i`, timing every library call through `spans`; the
    /// unit's time is the sum of those calls. Returns the output digest,
    /// or the invariant the output broke.
    fn unit(&mut self, i: usize, spans: &mut Spans<'_>) -> Result<u64, String>;

    /// The digest input 0 must produce at [`DEFAULT_SEED`].
    fn pinned_digest(&self) -> u64;

    /// Untimed checks and per-layer measurements made after the units.
    fn after(&mut self, ctx: &mut After<'_>);

    /// Records per-layer metrics from the profile of traced unit `i`;
    /// `scale` converts the profile's host seconds to reference seconds.
    fn profiled(&self, _i: usize, _profile: &ProfileReport, _scale: f64, _metrics: &mut Metrics) {}
}

/// Builds a workload from the seed. Set-up spans are recorded in host
/// seconds; the harness rescales them with `setup_s`.
pub type Setup = fn(u64, &mut Metrics) -> Result<Box<dyn Workload>, String>;

/// What [`Workload::after`] may read, measure and record.
pub struct After<'a> {
    pub metrics: &'a mut Metrics,
    pub checks: &'a mut Vec<Check>,
    pub clock: &'a mut Clock,
    pub trace: bool,
}

impl After<'_> {
    /// Records a named check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }
}

/// Everything one run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Vec<Check>,
    pub attempted: usize,
    pub failed: usize,
    pub timed_units: usize,
    pub traced_units: usize,
}

/// Digests seen per input, and the units that failed to match them.
struct Verifier {
    first: Vec<Option<u64>>,
    checked: usize,
    failures: Vec<String>,
}

impl Verifier {
    fn record(&mut self, i: usize, result: Result<u64, String>) {
        self.checked += 1;
        let inputs = self.first.len();
        let slot = &mut self.first[i % inputs];
        match (result, *slot) {
            (Err(broken), _) => self.failures.push(format!("unit {i}: {broken}")),
            (Ok(d), None) => *slot = Some(d),
            (Ok(d), Some(first)) if d != first => self.failures.push(format!(
                "unit {i}: digest {d:016x} differs from the input's first {first:016x}"
            )),
            (Ok(_), Some(_)) => {}
        }
    }
}

/// One unit's times.
struct UnitTimes {
    /// Sum of the unit's calls, reference seconds.
    reference: f64,
    /// Sum of the unit's calls, host seconds.
    calls: f64,
    /// The unit's host seconds, calibration excluded.
    wall: f64,
    totals: Vec<(&'static str, f64)>,
}

fn timed_unit(
    w: &mut dyn Workload,
    i: usize,
    clock: &mut Clock,
    verifier: &mut Verifier,
) -> UnitTimes {
    let spent = clock.spent;
    let t0 = Instant::now();
    let mut spans = Spans {
        clock,
        totals: Vec::new(),
        raw: 0.0,
        reference: 0.0,
    };
    let result = w.unit(i, &mut spans);
    let elapsed = t0.elapsed().as_secs_f64();
    let Spans {
        clock,
        totals,
        raw,
        reference,
    } = spans;
    verifier.record(i, result);
    UnitTimes {
        reference,
        calls: raw,
        wall: elapsed - (clock.spent - spent),
        totals,
    }
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Builds the workload at least `min_reps` times and for at least
/// `min_secs`, records each set-up metric's median over the batch in
/// reference seconds, and returns the last build.
fn setup_batch(
    setup: Setup,
    seed: u64,
    clock: &mut Clock,
    metrics: &mut Metrics,
    min_reps: usize,
    min_secs: f64,
) -> Result<Box<dyn Workload>, String> {
    let before = clock.last;
    let mut batch = Metrics::default();
    let started = Instant::now();
    let mut built = None;
    let mut reps = 0;
    while reps < min_reps || started.elapsed().as_secs_f64() < min_secs {
        // At most one build of the batch is alive at a time, so the
        // batches add one workload's memory to the peak, not two.
        drop(built.take());
        let t0 = Instant::now();
        let w = setup(seed, &mut batch)?;
        batch.push("setup_s", t0.elapsed().as_secs_f64());
        built = Some(w);
        reps += 1;
    }
    let after = clock.calibrate();
    metrics.push_medians(&batch, Clock::scale(before, after));
    Ok(built.expect("a set-up batch builds at least once"))
}

/// Runs one workload for `seconds` of timed units (plus a traced phase
/// of a quarter of that when `trace` is set) and checks its outputs.
pub fn run(setup: Setup, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut metrics = Metrics::default();
    let mut checks = Vec::new();

    // The first batch's last build is the workload the units run on.
    let mut clock = Clock::new();
    let mut w = setup_batch(setup, seed, &mut clock, &mut metrics, SETUP_FIRST_REPS, 0.0)?;
    let mut verifier = Verifier {
        first: vec![None; w.input_cycle()],
        checked: 0,
        failures: Vec::new(),
    };
    let warmup = timed_unit(w.as_mut(), 0, &mut clock, &mut verifier);
    metrics.push("bench.warmup_s", warmup.reference);

    let budget = Duration::from_secs_f64(seconds);
    let phase = Instant::now();
    let first_timed_cal = clock.samples.len();
    let (mut timed, mut calls, mut wall) = (0, 0.0, 0.0);
    while timed < MIN_TIMED_UNITS || phase.elapsed() < budget {
        let unit = timed_unit(w.as_mut(), timed, &mut clock, &mut verifier);
        metrics.push("wall_s", unit.reference);
        metrics.push("bench.raw_wall_s", unit.wall);
        for (name, secs) in unit.totals {
            metrics.push(name, secs);
        }
        calls += unit.calls;
        wall += unit.wall;
        timed += 1;
        drop(setup_batch(
            setup,
            seed,
            &mut clock,
            &mut metrics,
            1,
            unit.wall * SETUP_SHARE,
        )?);
    }
    let timed_cals = &clock.samples[first_timed_cal..];
    let median_cal = crate::stats::median(timed_cals).expect("timed units calibrate");
    metrics.push("bench.host_speed", CAL_REF_S / median_cal);

    let mut traced = 0;
    if trace {
        profile::reset();
        profile::set_enabled(true);
        let phase = Instant::now();
        let mut times = Vec::new();
        while traced < MIN_TRACED_UNITS || phase.elapsed() < budget / 4 {
            let unit = timed_unit(w.as_mut(), traced, &mut clock, &mut verifier);
            times.push(unit.reference);
            let scale = unit.reference / unit.calls;
            w.profiled(traced, &profile::take_report(), scale, &mut metrics);
            traced += 1;
        }
        profile::set_enabled(false);
        let untraced = metrics.value("wall_s").expect("timed units ran");
        let traced_median = crate::stats::median(&times).expect("traced units ran");
        metrics.push("bench.trace_overhead", traced_median / untraced);
    }

    w.after(&mut After {
        metrics: &mut metrics,
        checks: &mut checks,
        clock: &mut clock,
        trace,
    });

    let units_ok = verifier.failures.is_empty();
    let mut detail = format!(
        "{} of {} units reproduced their input's first digest and invariants",
        verifier.checked - verifier.failures.len(),
        verifier.checked
    );
    for failure in verifier.failures.iter().take(5) {
        detail.push_str("; ");
        detail.push_str(failure);
    }
    checks.push(Check {
        name: "units_repeat".into(),
        ok: units_ok,
        detail,
    });
    if seed == DEFAULT_SEED {
        let pinned = w.pinned_digest();
        let got = verifier.first[0];
        checks.push(Check {
            name: "pinned_digest".into(),
            ok: got == Some(pinned),
            detail: format!(
                "input 0 at seed {DEFAULT_SEED}: {} (pinned {pinned:016x})",
                got.map_or("no digest".to_string(), |d| format!("{d:016x}"))
            ),
        });
    }

    let units = metrics.samples("wall_s").to_vec();
    let (q1, median, q3) = crate::stats::quartiles(&units).expect("timed units ran");
    metrics.push("bench.wall_s_q1", q1);
    metrics.push("bench.wall_s_q3", q3);
    metrics.push(
        "bench.wall_s_p90",
        crate::stats::p90(&units).expect("timed units ran"),
    );
    metrics.push("bench.span_coverage", calls / wall);
    // Throughput of the median unit, so one stalled unit moves it no
    // more than it moves `wall_s`.
    metrics.push("items_per_s", w.items_per_unit() / median);
    match peak_rss_mb() {
        Some(mb) => metrics.push("peak_rss_mb", mb),
        None => checks.push(Check {
            name: "peak_rss".into(),
            ok: false,
            detail: "VmHWM missing from /proc/self/status".into(),
        }),
    }

    let attempted = 1 + timed + traced;
    let failed_units = verifier.failures.len();
    let failed_checks = checks.iter().filter(|c| !c.ok).count() - usize::from(!units_ok);
    Ok(Outcome {
        metrics,
        checks,
        attempted,
        failed: (failed_units + failed_checks).min(attempted),
        timed_units: timed,
        traced_units: traced,
    })
}
