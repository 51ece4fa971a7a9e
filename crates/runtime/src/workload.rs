//! Seeded request-stream generation: the arrival side of the serving
//! simulator.
//!
//! A [`Workload`] turns `(seed, request count)` into a deterministic
//! request stream. [`Workload::stream`] yields requests **lazily** — one
//! at a time, in arrival order, with O(1) state — so the simulator can
//! serve 10⁶–10⁷ requests without ever materializing them;
//! [`Workload::generate`] is the eager wrapper that collects the same
//! stream into a vector (it produces byte-identical requests: the two
//! paths share one generator). Five arrival processes are provided:
//!
//! * **Poisson** — i.i.d. exponential interarrival gaps at a fixed mean
//!   rate, the standard open-loop service model;
//! * **Bursty** — a two-phase modulated Poisson process (an MMPP-2): the
//!   generator alternates between an *on* phase at `burst × rate` and an
//!   *off* phase at a compensating low rate, so the long-run mean rate is
//!   preserved while arrivals cluster — the tail-latency stressor;
//! * **Diurnal** — a sinusoidally rate-modulated Poisson process
//!   (thinning / Lewis–Shedler sampling against the peak rate):
//!   `rate(t) = rate × (1 + amplitude·sin(2πt/period))`, the classic
//!   daily traffic curve compressed onto the simulation clock;
//! * **FlashCrowd** — baseline Poisson until `at_s`, then an
//!   exponentially decaying overload
//!   `rate(t) = rate × (1 + (spike−1)·e^{−(t−at)/decay})` — the
//!   breaking-news shape that stresses admission control;
//! * **TraceFile** — bounded-memory replay of a JSONL trace from disk:
//!   one object per line, `{"arrival_s": 0.0123}` with optional
//!   `"network"` and `"class"` members overriding the mix/class draw.
//!   Lines must be sorted by `arrival_s` (the reader streams; it cannot
//!   sort) and blank lines are skipped. Each line is read with
//!   `albireo_obs::jsonv`; [`Workload::check_trace_file`] reports a bad
//!   line as `<path>:<line>: …` before a run starts, and the stream
//!   panics with the same message if handed one anyway.
//!
//! Requests optionally carry a **class** — a multi-tenant label drawn
//! from [`Workload::classes`] ([`ClassSpec`]: name, traffic weight,
//! optional SLO target) — so reports can break latency and SLO
//! attainment out per tenant. With no classes configured every request
//! is class 0 and no class randomness is consumed.
//!
//! Determinism contract: generation draws from a `StdRng` seeded with
//! `split_seed(seed, stream)` per concern (one stream for gaps, one for
//! network choice, one for class choice), so a workload is a pure
//! function of `(spec, seed)` — independent of thread count, host, call
//! site, or whether the stream is consumed lazily or collected.

use crate::grammar::Lexer;
use albireo_obs::jsonv::{self, Value};
use albireo_parallel::{split_seed, stream_id};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::{BufRead, BufReader};

/// Stream-id pass tag for interarrival-gap draws.
const GAP_PASS: u64 = 0x5E1;
/// Stream-id pass tag for network-mix draws.
const MIX_PASS: u64 = 0x5E2;
/// Stream-id pass tag for request-class draws.
const CLASS_PASS: u64 = 0x5E3;

/// One inference request offered to the service.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Monotone request id (arrival order).
    pub id: u64,
    /// Index into the workload's network mix.
    pub network: usize,
    /// Arrival instant on the virtual clock, s.
    pub arrival_s: f64,
    /// Index into the workload's class table (0 when no classes are
    /// configured).
    pub class: usize,
}

/// A multi-tenant request class: a label, its share of the traffic, and
/// an optional latency SLO the report scores attainment against.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Tenant label (e.g. `interactive`, `batch`).
    pub name: String,
    /// Traffic weight (need not sum to one across classes).
    pub weight: f64,
    /// End-to-end latency target, ms; `None` = best-effort.
    pub slo_ms: Option<f64>,
}

impl ClassSpec {
    /// A named class with `weight` share and no SLO.
    pub fn best_effort(name: &str, weight: f64) -> ClassSpec {
        ClassSpec {
            name: name.to_string(),
            weight,
            slo_ms: None,
        }
    }

    /// A named class with `weight` share and a latency SLO in ms.
    pub fn with_slo(name: &str, weight: f64, slo_ms: f64) -> ClassSpec {
        ClassSpec {
            name: name.to_string(),
            weight,
            slo_ms: Some(slo_ms),
        }
    }

    /// Parses a class list `NAME:WEIGHT[:SLO_MS],...` (the CLI
    /// `--classes` grammar). Entries without an SLO inherit
    /// `default_slo_ms`. Duplicate class names are rejected — per-class
    /// attainment reports would silently merge tenants otherwise.
    pub fn parse_list(list: &str, default_slo_ms: Option<f64>) -> Result<Vec<ClassSpec>, String> {
        let mut entries = Lexer::new("classes", list, ',');
        let mut classes: Vec<ClassSpec> = Vec::new();
        while let Some(entry) = entries.next() {
            if entry.is_empty() {
                continue;
            }
            let mut lx = entries.split(entry, ':');
            let name = lx.token("class name")?;
            if name.is_empty() {
                return Err(lx.expected(name, "NAME:WEIGHT[:SLO_MS]"));
            }
            if classes.iter().any(|c| c.name == name) {
                return Err(lx.reject(
                    name,
                    format_args!(
                        "duplicate class name `{name}` (each tenant class may appear once)"
                    ),
                ));
            }
            classes.push(ClassSpec {
                name: name.to_string(),
                weight: lx.positive("class weight")?,
                slo_ms: if lx.at_end() {
                    default_slo_ms
                } else {
                    Some(lx.positive("class SLO in ms")?)
                },
            });
            lx.end()?;
        }
        if classes.is_empty() {
            return Err(entries.missing("at least one NAME:WEIGHT[:SLO_MS] class"));
        }
        Ok(classes)
    }
}

/// The arrival process shaping request interarrival times.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Exponential interarrival gaps at `rate_rps` requests per second.
    Poisson {
        /// Mean arrival rate, requests/s.
        rate_rps: f64,
    },
    /// Two-phase modulated Poisson: `on_s` seconds at `burst × rate_rps`,
    /// then `off_s` seconds at the compensating low rate that keeps the
    /// long-run mean at `rate_rps`.
    Bursty {
        /// Long-run mean arrival rate, requests/s.
        rate_rps: f64,
        /// On-phase rate multiplier (> 1).
        burst: f64,
        /// On-phase duration, s.
        on_s: f64,
        /// Off-phase duration, s.
        off_s: f64,
    },
    /// Sinusoidal rate modulation
    /// `rate(t) = rate_rps × (1 + amplitude·sin(2πt/period_s))`, sampled
    /// by thinning against the peak rate. The long-run mean stays
    /// `rate_rps`.
    Diurnal {
        /// Long-run mean arrival rate, requests/s.
        rate_rps: f64,
        /// Peak-to-mean swing, in `[0, 1]` (0 is a constant rate).
        amplitude: f64,
        /// Cycle period, s (a "day" on the simulation clock).
        period_s: f64,
    },
    /// Baseline Poisson until `at_s`, then a spike decaying as
    /// `rate(t) = rate_rps × (1 + (spike−1)·e^{−(t−at_s)/decay_s})`.
    FlashCrowd {
        /// Baseline arrival rate, requests/s.
        rate_rps: f64,
        /// Instantaneous rate multiplier at the spike front (> 1).
        spike: f64,
        /// Spike onset, s.
        at_s: f64,
        /// Exponential decay constant of the overload, s.
        decay_s: f64,
    },
    /// Bounded-memory JSONL replay from disk (see module docs for the
    /// line format). Lines must already be sorted by `arrival_s`.
    TraceFile {
        /// Path to the JSONL trace.
        path: String,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate this process aims at, requests/s
    /// (for on-disk traces, 0.0 — unknown until replayed).
    pub fn mean_rate_rps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_rps } => *rate_rps,
            ArrivalProcess::Bursty { rate_rps, .. } => *rate_rps,
            ArrivalProcess::Diurnal { rate_rps, .. } => *rate_rps,
            ArrivalProcess::FlashCrowd { rate_rps, .. } => *rate_rps,
            ArrivalProcess::TraceFile { .. } => 0.0,
        }
    }

    /// Parses the one-line shape grammar — `poisson`,
    /// `bursty:<BURST>:<ON_S>:<OFF_S>`, `diurnal:<AMPLITUDE>:<PERIOD_S>`,
    /// or `flash:<SPIKE>:<AT_S>:<DECAY_S>` — at mean rate `rate_rps`, and
    /// [`validate`](ArrivalProcess::validate)s the result. Trace replay
    /// is outside the grammar: a spec line must reproduce its
    /// stream alone.
    pub fn parse(spec: &str, rate_rps: f64) -> Result<ArrivalProcess, String> {
        let mut lx = Lexer::new("arrival", spec, ':');
        let kind = lx.token("arrival kind")?;
        let process = match kind {
            "poisson" => ArrivalProcess::Poisson { rate_rps },
            "bursty" => ArrivalProcess::Bursty {
                rate_rps,
                burst: lx.field("burst")?,
                on_s: lx.field("on_s")?,
                off_s: lx.field("off_s")?,
            },
            "diurnal" => ArrivalProcess::Diurnal {
                rate_rps,
                amplitude: lx.field("amplitude")?,
                period_s: lx.field("period_s")?,
            },
            "flash" => ArrivalProcess::FlashCrowd {
                rate_rps,
                spike: lx.field("spike")?,
                at_s: lx.field("at_s")?,
                decay_s: lx.field("decay_s")?,
            },
            _ => {
                return Err(lx.expected(
                    kind,
                    "poisson, bursty:<BURST>:<ON_S>:<OFF_S>, diurnal:<AMPLITUDE>:<PERIOD_S> \
                     or flash:<SPIKE>:<AT_S>:<DECAY_S>",
                ))
            }
        };
        lx.end()?;
        process.validate().map_err(|e| lx.reject(kind, e))?;
        Ok(process)
    }

    /// The canonical [`parse`](ArrivalProcess::parse) form (the rate is
    /// carried separately). Floats print via `{}`, so parsing the spec
    /// back reproduces every bit.
    pub fn spec(&self) -> String {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson".to_string(),
            ArrivalProcess::Bursty {
                burst, on_s, off_s, ..
            } => format!("bursty:{burst}:{on_s}:{off_s}"),
            ArrivalProcess::Diurnal {
                amplitude,
                period_s,
                ..
            } => format!("diurnal:{amplitude}:{period_s}"),
            ArrivalProcess::FlashCrowd {
                spike,
                at_s,
                decay_s,
                ..
            } => format!("flash:{spike}:{at_s}:{decay_s}"),
            ArrivalProcess::TraceFile { path } => format!("trace_file:{path}"),
        }
    }

    /// Checks the shape parameters every stream relies on: a finite
    /// positive rate, burst and spike factors above 1, a diurnal
    /// amplitude in `[0, 1]`, and finite positive durations (a flash
    /// onset may be 0). The spec grammar and the CLI's shape flags both
    /// validate through here.
    pub fn validate(&self) -> Result<(), String> {
        let pos = |x: f64| x.is_finite() && x > 0.0;
        let above_one = |x: f64| x.is_finite() && x > 1.0;
        let (ok, needs) = match *self {
            ArrivalProcess::Poisson { rate_rps } => (pos(rate_rps), "a positive rate"),
            ArrivalProcess::Bursty {
                rate_rps: r,
                burst,
                on_s,
                off_s,
            } => (
                pos(r) && above_one(burst) && pos(on_s) && pos(off_s),
                "a positive rate, burst > 1 and positive phase durations",
            ),
            ArrivalProcess::Diurnal {
                rate_rps: r,
                amplitude: a,
                period_s,
            } => (
                pos(r) && (0.0..=1.0).contains(&a) && pos(period_s),
                "a positive rate, amplitude in [0, 1] and a positive period",
            ),
            ArrivalProcess::FlashCrowd {
                rate_rps: r,
                spike,
                at_s,
                decay_s,
            } => (
                pos(r) && above_one(spike) && (0.0..f64::INFINITY).contains(&at_s) && pos(decay_s),
                "a positive rate, spike > 1, onset >= 0 and a positive decay",
            ),
            ArrivalProcess::TraceFile { .. } => (true, ""),
        };
        match ok {
            true => Ok(()),
            false => Err(format!("{} arrivals need {needs}", self.label())),
        }
    }

    /// A short label for reports (`poisson`, `bursty`, `diurnal`,
    /// `flash`, `trace_file`).
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
            ArrivalProcess::FlashCrowd { .. } => "flash",
            ArrivalProcess::TraceFile { .. } => "trace_file",
        }
    }
}

/// A request stream specification: the arrival process, the network mix
/// requests draw from, and the (optional) multi-tenant class table.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Weighted network mix: `(network index, weight)`. Weights need not
    /// sum to one; they are normalized at draw time. Network indices refer
    /// to the fleet's model table.
    pub mix: Vec<(usize, f64)>,
    /// Multi-tenant request classes; empty = one anonymous class and no
    /// class randomness consumed (so class-free configs keep their
    /// historical digests).
    pub classes: Vec<ClassSpec>,
}

impl Workload {
    /// A single-network Poisson workload — the common case.
    pub fn poisson(rate_rps: f64, network: usize) -> Workload {
        Workload {
            process: ArrivalProcess::Poisson { rate_rps },
            mix: vec![(network, 1.0)],
            classes: Vec::new(),
        }
    }

    /// This workload with a class table.
    pub fn with_classes(mut self, classes: Vec<ClassSpec>) -> Workload {
        self.classes = classes;
        self
    }

    /// Opens the lazy request stream: at most `n` requests in arrival
    /// order, deterministically from `seed`, with O(1) generator state.
    pub fn stream(&self, n: usize, seed: u64) -> RequestStream {
        assert!(
            !self.mix.is_empty() && self.mix.iter().all(|&(_, w)| w >= 0.0),
            "network mix must be non-empty with non-negative weights"
        );
        let total_weight: f64 = self.mix.iter().map(|&(_, w)| w).sum();
        assert!(total_weight > 0.0, "network mix weights must not all be 0");
        let class_weight: f64 = self.classes.iter().map(|c| c.weight).sum();
        assert!(
            self.classes.is_empty()
                || (class_weight > 0.0 && self.classes.iter().all(|c| c.weight >= 0.0)),
            "class weights must be non-negative and not all 0"
        );
        if let Err(e) = self.process.validate() {
            panic!("{e}");
        }
        let source = match &self.process {
            ArrivalProcess::Poisson { rate_rps } => Source::Poisson { rate: *rate_rps },
            ArrivalProcess::Bursty {
                rate_rps,
                burst,
                on_s,
                off_s,
            } => {
                // Low rate chosen so the duty-cycle-weighted mean is rate_rps;
                // clamped at a trickle so the off phase still terminates.
                let period = on_s + off_s;
                let low =
                    ((rate_rps * period - burst * rate_rps * on_s) / off_s).max(rate_rps * 1e-3);
                Source::Bursty {
                    rate: *rate_rps,
                    burst: *burst,
                    on_s: *on_s,
                    off_s: *off_s,
                    low,
                    in_on: true,
                    phase_end: *on_s,
                }
            }
            ArrivalProcess::Diurnal {
                rate_rps,
                amplitude,
                period_s,
            } => Source::Diurnal {
                rate: *rate_rps,
                amplitude: *amplitude,
                period_s: *period_s,
            },
            ArrivalProcess::FlashCrowd {
                rate_rps,
                spike,
                at_s,
                decay_s,
            } => Source::Flash {
                rate: *rate_rps,
                spike: *spike,
                at_s: *at_s,
                decay_s: *decay_s,
            },
            ArrivalProcess::TraceFile { path } => {
                Source::TraceFile(TraceReader::open(path).unwrap_or_else(|e| panic!("{e}")))
            }
        };
        RequestStream {
            source,
            t: 0.0,
            gap_rng: StdRng::seed_from_u64(split_seed(seed, stream_id(GAP_PASS, 0, 0))),
            mix_rng: StdRng::seed_from_u64(split_seed(seed, stream_id(MIX_PASS, 0, 0))),
            class_rng: StdRng::seed_from_u64(split_seed(seed, stream_id(CLASS_PASS, 0, 0))),
            mix: self.mix.clone(),
            total_weight,
            classes: self.classes.clone(),
            class_weight,
            remaining: n,
            next_id: 0,
        }
    }

    /// Reads, up front, the trace lines [`Workload::stream`] would replay
    /// for `n` requests, and checks that each parses, keeps the file
    /// sorted, names a network below `networks` and, when classes are
    /// configured, a class of the table. Errors read `<path>:<line>: …`.
    /// Other arrival processes pass trivially.
    pub fn check_trace_file(&self, n: usize, networks: usize) -> Result<(), String> {
        let ArrivalProcess::TraceFile { path } = &self.process else {
            return Ok(());
        };
        let mut reader = TraceReader::open(path)?;
        let classes = self.classes.len();
        for _ in 0..n {
            let Some(arrival) = reader.next().transpose()? else {
                break;
            };
            let line = reader.line_no;
            if let Some(i) = arrival.network.filter(|&i| i >= networks) {
                return Err(format!(
                    "{path}:{line}: \"network\" {i} is outside the {networks} fleet models"
                ));
            }
            if let Some(i) = arrival.class.filter(|&i| classes > 0 && i >= classes) {
                return Err(format!(
                    "{path}:{line}: \"class\" {i} is outside the {classes} configured classes"
                ));
            }
        }
        Ok(())
    }

    /// Generates the first `n` requests of the stream, deterministically
    /// from `seed` — [`Workload::stream`] collected eagerly. Returned
    /// requests are sorted by arrival time; ids are assigned in arrival
    /// order.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Request> {
        self.stream(n, seed).collect()
    }
}

/// Per-process generator state for [`RequestStream`].
#[derive(Debug)]
enum Source {
    Poisson {
        rate: f64,
    },
    Bursty {
        rate: f64,
        burst: f64,
        on_s: f64,
        off_s: f64,
        low: f64,
        in_on: bool,
        phase_end: f64,
    },
    Diurnal {
        rate: f64,
        amplitude: f64,
        period_s: f64,
    },
    Flash {
        rate: f64,
        spike: f64,
        at_s: f64,
        decay_s: f64,
    },
    TraceFile(TraceReader),
}

/// One line of a JSONL arrival trace.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TraceArrival {
    /// Arrival instant, s.
    arrival_s: f64,
    /// Network index overriding the mix draw.
    network: Option<usize>,
    /// Class index overriding the class draw.
    class: Option<usize>,
}

impl TraceArrival {
    /// Parses one non-blank trace line: a JSON object whose `arrival_s`
    /// is a finite, non-negative number and whose optional `network` and
    /// `class` are non-negative integers. Other members are ignored.
    fn parse(line: &str) -> Result<TraceArrival, String> {
        let value = jsonv::parse(line).map_err(|e| e.to_string())?;
        if value.as_obj().is_none() {
            return Err("expected a JSON object".into());
        }
        let arrival_s = value
            .get("arrival_s")
            .and_then(Value::as_f64)
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or("\"arrival_s\" must be a finite, non-negative number")?;
        let index = |key: &str| match value.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .filter(|x| *x >= 0.0 && x.fract() == 0.0 && *x < 2f64.powi(53))
                .map(|x| Some(x as usize))
                .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
        };
        Ok(TraceArrival {
            arrival_s,
            network: index("network")?,
            class: index("class")?,
        })
    }
}

/// A JSONL trace file's arrivals in file order: blank lines skipped,
/// `arrival_s` required to be nondecreasing, errors prefixed with
/// `<path>:<line>`.
#[derive(Debug)]
struct TraceReader {
    lines: std::io::Lines<BufReader<File>>,
    path: String,
    line_no: usize,
    last_s: f64,
}

impl TraceReader {
    fn open(path: &str) -> Result<TraceReader, String> {
        let file =
            File::open(path).map_err(|e| format!("cannot open arrival trace {path}: {e}"))?;
        Ok(TraceReader {
            lines: BufReader::new(file).lines(),
            path: path.to_string(),
            line_no: 0,
            last_s: 0.0,
        })
    }
}

impl Iterator for TraceReader {
    type Item = Result<TraceArrival, String>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(line) => line,
                Err(e) => return Some(Err(format!("read error in {}: {e}", self.path))),
            };
            self.line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            let at = |message: &str| format!("{}:{}: {message}", self.path, self.line_no);
            return Some(match TraceArrival::parse(&line) {
                Err(e) => Err(at(&e)),
                Ok(a) if a.arrival_s < self.last_s => Err(at(
                    "trace must be sorted by arrival_s (bounded-memory replay cannot sort)",
                )),
                Ok(a) => {
                    self.last_s = a.arrival_s;
                    Ok(a)
                }
            });
        }
    }
}

/// The lazy arrival iterator [`Workload::stream`] returns: O(1) state,
/// yields [`Request`]s in nondecreasing arrival order.
#[derive(Debug)]
pub struct RequestStream {
    source: Source,
    /// Current virtual time of the generator, s.
    t: f64,
    gap_rng: StdRng,
    mix_rng: StdRng,
    class_rng: StdRng,
    mix: Vec<(usize, f64)>,
    total_weight: f64,
    classes: Vec<ClassSpec>,
    class_weight: f64,
    remaining: usize,
    next_id: u64,
}

impl RequestStream {
    /// Next arrival instant plus any per-arrival overrides a trace file
    /// carries: `(time, network override, class override)`.
    fn next_arrival(&mut self) -> Option<(f64, Option<usize>, Option<usize>)> {
        match &mut self.source {
            Source::Poisson { rate } => {
                self.t += exp_gap(&mut self.gap_rng, *rate);
                Some((self.t, None, None))
            }
            Source::Bursty {
                rate,
                burst,
                on_s,
                off_s,
                low,
                in_on,
                phase_end,
            } => {
                loop {
                    let r = if *in_on { *burst * *rate } else { *low };
                    let gap = exp_gap(&mut self.gap_rng, r);
                    if self.t + gap <= *phase_end {
                        self.t += gap;
                        break;
                    }
                    // The gap crosses the phase boundary: jump to the
                    // boundary and re-draw at the new phase's rate, which
                    // keeps the process properly modulated. The boundary
                    // advances by a full phase each redraw, so the loop
                    // always terminates.
                    self.t = *phase_end;
                    *in_on = !*in_on;
                    *phase_end += if *in_on { *on_s } else { *off_s };
                }
                Some((self.t, None, None))
            }
            Source::Diurnal {
                rate,
                amplitude,
                period_s,
            } => {
                // Thinning against the peak rate: candidate gaps at
                // rate×(1+amplitude), accepted with probability
                // rate(t)/peak. Acceptance ≥ 1/(1+amplitude) ≥ ½.
                let peak = *rate * (1.0 + *amplitude);
                loop {
                    self.t += exp_gap(&mut self.gap_rng, peak);
                    let r = *rate
                        * (1.0 + *amplitude * (std::f64::consts::TAU * self.t / *period_s).sin());
                    let u: f64 = self.gap_rng.random();
                    if u * peak <= r {
                        return Some((self.t, None, None));
                    }
                }
            }
            Source::Flash {
                rate,
                spike,
                at_s,
                decay_s,
            } => loop {
                let before = self.t < *at_s;
                let bound = if before { *rate } else { *rate * *spike };
                let gap = exp_gap(&mut self.gap_rng, bound);
                if before && self.t + gap > *at_s {
                    // The candidate crosses the spike front, where the
                    // baseline bound stops dominating: restart the
                    // (memoryless) draw at the front.
                    self.t = *at_s;
                    continue;
                }
                self.t += gap;
                if before {
                    // rate(t) equals the bound exactly here: always accept.
                    return Some((self.t, None, None));
                }
                let r = *rate * (1.0 + (*spike - 1.0) * (-(self.t - *at_s) / *decay_s).exp());
                let u: f64 = self.gap_rng.random();
                if u * bound <= r {
                    return Some((self.t, None, None));
                }
            },
            Source::TraceFile(reader) => reader.next().map(|arrival| {
                let a = arrival.unwrap_or_else(|e| panic!("{e}"));
                (a.arrival_s, a.network, a.class)
            }),
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        let (arrival_s, net_override, class_override) = self.next_arrival()?;
        self.remaining -= 1;
        let network = net_override
            .unwrap_or_else(|| pick_weighted(&mut self.mix_rng, &self.mix, self.total_weight));
        let class = match class_override {
            Some(c) => c,
            // A single configured class needs no draw; two or more share
            // the class randomness stream.
            None if self.classes.len() >= 2 => {
                pick_class(&mut self.class_rng, &self.classes, self.class_weight)
            }
            None => 0,
        };
        let id = self.next_id;
        self.next_id += 1;
        Some(Request {
            id,
            network,
            arrival_s,
            class,
        })
    }
}

/// Weighted draw from the network mix (one uniform per call).
fn pick_weighted(rng: &mut StdRng, mix: &[(usize, f64)], total_weight: f64) -> usize {
    let mut u: f64 = rng.random::<f64>() * total_weight;
    for &(network, w) in mix {
        if u < w {
            return network;
        }
        u -= w;
    }
    mix.last().expect("mix is non-empty").0
}

/// Weighted draw of a class index (one uniform per call).
fn pick_class(rng: &mut StdRng, classes: &[ClassSpec], total_weight: f64) -> usize {
    let mut u: f64 = rng.random::<f64>() * total_weight;
    for (i, c) in classes.iter().enumerate() {
        if u < c.weight {
            return i;
        }
        u -= c.weight;
    }
    classes.len() - 1
}

/// One exponential interarrival gap at `rate` (inverse-CDF sampling).
fn exp_gap(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.random();
    // 1 - u ∈ (0, 1], so the log is finite.
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_list_parses_and_rejects_duplicates() {
        let classes = ClassSpec::parse_list("vip:3:5, batch:1", Some(20.0)).unwrap();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], ClassSpec::with_slo("vip", 3.0, 5.0));
        assert_eq!(classes[1], ClassSpec::with_slo("batch", 1.0, 20.0));
        let best_effort = ClassSpec::parse_list("solo:2", None).unwrap();
        assert_eq!(best_effort[0], ClassSpec::best_effort("solo", 2.0));

        let err = ClassSpec::parse_list("vip:1, vip:2:9", None).unwrap_err();
        assert!(
            err.contains("duplicate class name `vip`"),
            "unexpected message: {err}"
        );
        assert!(ClassSpec::parse_list("", None).is_err());
        assert!(ClassSpec::parse_list("vip", None).is_err());
        assert!(ClassSpec::parse_list("vip:-1", None).is_err());
        assert!(ClassSpec::parse_list("vip:1:0", None).is_err());
        assert!(ClassSpec::parse_list(":1", None).is_err());
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let w = Workload::poisson(1000.0, 0);
        let a = w.generate(500, 42);
        let b = w.generate(500, 42);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|p| p[0].arrival_s <= p[1].arrival_s));
        assert!(a.iter().all(|r| r.arrival_s > 0.0));
        assert!(a.iter().all(|r| r.class == 0));
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn different_seeds_differ() {
        let w = Workload::poisson(1000.0, 0);
        assert_ne!(w.generate(100, 1), w.generate(100, 2));
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let w = Workload::poisson(2000.0, 0);
        let reqs = w.generate(4000, 7);
        let span = reqs.last().unwrap().arrival_s;
        let rate = reqs.len() as f64 / span;
        assert!((rate / 2000.0 - 1.0).abs() < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn bursty_preserves_mean_rate_and_clusters() {
        let w = Workload {
            process: ArrivalProcess::Bursty {
                rate_rps: 1000.0,
                burst: 4.0,
                on_s: 0.01,
                off_s: 0.04,
            },
            mix: vec![(0, 1.0)],
            classes: Vec::new(),
        };
        let reqs = w.generate(4000, 11);
        let span = reqs.last().unwrap().arrival_s;
        let rate = reqs.len() as f64 / span;
        assert!((rate / 1000.0 - 1.0).abs() < 0.25, "empirical rate {rate}");
        // Burstiness: the gap distribution has a higher coefficient of
        // variation than exponential (CV = 1).
        let gaps: Vec<f64> = reqs
            .windows(2)
            .map(|p| p[1].arrival_s - p[0].arrival_s)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(var.sqrt() / mean > 1.1, "CV = {}", var.sqrt() / mean);
    }

    #[test]
    fn mix_draws_all_networks() {
        let w = Workload {
            process: ArrivalProcess::Poisson { rate_rps: 100.0 },
            mix: vec![(0, 1.0), (3, 1.0)],
            classes: Vec::new(),
        };
        let reqs = w.generate(200, 9);
        assert!(reqs.iter().any(|r| r.network == 0));
        assert!(reqs.iter().any(|r| r.network == 3));
        assert!(reqs.iter().all(|r| r.network == 0 || r.network == 3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        Workload::poisson(0.0, 0).generate(1, 0);
    }

    #[test]
    fn stream_matches_generate_for_every_process() {
        for process in [
            ArrivalProcess::Poisson { rate_rps: 3000.0 },
            ArrivalProcess::Bursty {
                rate_rps: 1000.0,
                burst: 4.0,
                on_s: 0.01,
                off_s: 0.04,
            },
            ArrivalProcess::Diurnal {
                rate_rps: 2000.0,
                amplitude: 0.5,
                period_s: 0.5,
            },
            ArrivalProcess::FlashCrowd {
                rate_rps: 1000.0,
                spike: 8.0,
                at_s: 0.05,
                decay_s: 0.02,
            },
        ] {
            let w = Workload {
                process,
                mix: vec![(0, 3.0), (1, 1.0)],
                classes: Vec::new(),
            };
            let eager = w.generate(300, 42);
            let lazy: Vec<Request> = w.stream(300, 42).collect();
            assert_eq!(eager, lazy, "lazy and eager paths must agree");
        }
    }

    #[test]
    fn diurnal_modulates_density_within_a_period() {
        let w = Workload {
            process: ArrivalProcess::Diurnal {
                rate_rps: 10_000.0,
                amplitude: 0.9,
                period_s: 1.0,
            },
            mix: vec![(0, 1.0)],
            classes: Vec::new(),
        };
        let reqs = w.generate(25_000, 13);
        assert!(reqs.windows(2).all(|p| p[0].arrival_s <= p[1].arrival_s));
        // First half-period (sin > 0) must be denser than the second.
        let first: usize = reqs
            .iter()
            .filter(|r| r.arrival_s.rem_euclid(1.0) < 0.5)
            .count();
        let second = reqs.len() - first;
        assert!(
            first as f64 > 1.5 * second as f64,
            "peak half {first} vs trough half {second}"
        );
        // The mean rate matches rate_rps when measured over whole
        // periods (a fractional period over-samples one half).
        let span = reqs.last().unwrap().arrival_s;
        assert!(span > 2.0, "stream must cover two full periods, got {span}");
        let in_two = reqs.iter().filter(|r| r.arrival_s < 2.0).count() as f64;
        let rate = in_two / 2.0;
        assert!((rate / 10_000.0 - 1.0).abs() < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn flash_crowd_spikes_after_onset() {
        let w = Workload {
            process: ArrivalProcess::FlashCrowd {
                rate_rps: 1000.0,
                spike: 10.0,
                at_s: 0.1,
                decay_s: 0.05,
            },
            mix: vec![(0, 1.0)],
            classes: Vec::new(),
        };
        let reqs = w.generate(2000, 17);
        assert!(reqs.windows(2).all(|p| p[0].arrival_s <= p[1].arrival_s));
        let in_window = |lo: f64, hi: f64| {
            reqs.iter()
                .filter(|r| r.arrival_s >= lo && r.arrival_s < hi)
                .count() as f64
                / (hi - lo)
        };
        let before = in_window(0.0, 0.1);
        let during = in_window(0.1, 0.15);
        assert!(
            during > 3.0 * before,
            "spike density {during:.0} vs baseline {before:.0}"
        );
    }

    #[test]
    fn classes_split_traffic_by_weight() {
        let w = Workload::poisson(1000.0, 0).with_classes(vec![
            ClassSpec::with_slo("interactive", 3.0, 10.0),
            ClassSpec::best_effort("batch", 1.0),
        ]);
        let reqs = w.generate(2000, 21);
        let interactive = reqs.iter().filter(|r| r.class == 0).count();
        let batch = reqs.iter().filter(|r| r.class == 1).count();
        assert_eq!(interactive + batch, 2000);
        let share = interactive as f64 / 2000.0;
        assert!((share - 0.75).abs() < 0.05, "interactive share {share}");
    }

    #[test]
    fn classless_workload_consumes_no_class_randomness() {
        // Adding a single class (no draw needed) must not perturb the
        // request stream relative to no classes at all.
        let bare = Workload::poisson(1000.0, 0).generate(200, 5);
        let one = Workload::poisson(1000.0, 0)
            .with_classes(vec![ClassSpec::with_slo("all", 1.0, 5.0)])
            .generate(200, 5);
        assert_eq!(
            bare,
            one.iter()
                .map(|r| Request {
                    class: 0,
                    ..r.clone()
                })
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn trace_file_replays_with_overrides() {
        let path = std::env::temp_dir().join(format!(
            "albireo_trace_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(
            &path,
            "{\"arrival_s\": 0.001}\n\
             \n\
             {\"arrival_s\": 0.002, \"network\": 1}\n\
             {\"arrival_s\": 0.004, \"network\": 0, \"class\": 1}\n",
        )
        .unwrap();
        let w = Workload {
            process: ArrivalProcess::TraceFile {
                path: path.to_string_lossy().into_owned(),
            },
            mix: vec![(0, 1.0)],
            classes: vec![
                ClassSpec::best_effort("a", 1.0),
                ClassSpec::best_effort("b", 1.0),
            ],
        };
        let reqs = w.generate(10, 3);
        std::fs::remove_file(&path).ok();
        assert_eq!(reqs.len(), 3, "blank lines are skipped");
        assert_eq!(reqs[0].arrival_s, 0.001);
        assert_eq!(reqs[1].network, 1, "network override honored");
        assert_eq!(reqs[2].class, 1, "class override honored");
        assert_eq!(reqs[2].network, 0);
    }

    #[test]
    fn trace_lines_parse_strictly() {
        let line = r#"{"arrival_s": 0.5, "network": 2, "class": 0, "x": "y"}"#;
        let (network, class) = (Some(2), Some(0));
        let arrival = TraceArrival {
            arrival_s: 0.5,
            network,
            class,
        };
        assert_eq!(TraceArrival::parse(line), Ok(arrival));
        for (bad, key) in [
            (r#"{"arrival_s": "soon"}"#, "arrival_s"),
            (r#"{"arrival_s": -1}"#, "arrival_s"),
            (r#"{"arrival_s": 1e999}"#, "arrival_s"),
            (r#"{"network": 1}"#, "arrival_s"),
            (r#"{"arrival_s": 0.1, "network": 1.7}"#, "network"),
            (r#"{"arrival_s": 0.1, "network": -3}"#, "network"),
            (r#"{"arrival_s": 0.1, "class": "vip"}"#, "class"),
        ] {
            let err = TraceArrival::parse(bad).unwrap_err();
            assert!(
                err.starts_with(&format!("\"{key}\" must be")),
                "{bad}: {err}"
            );
        }
        assert!(TraceArrival::parse("[0.1]").is_err());
        assert!(TraceArrival::parse(r#"{"arrival_s": 0.1,}"#).is_err());
    }

    #[test]
    fn trace_file_check_names_the_bad_line() {
        let path = std::env::temp_dir().join(format!(
            "albireo_trace_check_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let w = |classes: usize| Workload {
            process: ArrivalProcess::TraceFile {
                path: path.to_string_lossy().into_owned(),
            },
            mix: vec![(0, 1.0)],
            classes: (0..classes)
                .map(|i| ClassSpec::best_effort(&format!("c{i}"), 1.0))
                .collect(),
        };
        let check = |body: &str, n: usize, classes: usize| {
            std::fs::write(&path, body).unwrap();
            w(classes).check_trace_file(n, 4)
        };
        let p = path.to_string_lossy().into_owned();
        let good = "{\"arrival_s\": 0.1}\n\n{\"arrival_s\": 0.2, \"network\": 3, \"class\": 1}\n";
        assert_eq!(check(good, 10, 2), Ok(()));
        // Without a class table the class label is not an index.
        assert_eq!(check(good, 10, 0), Ok(()));
        let err = check(good, 10, 1).unwrap_err();
        assert!(err.starts_with(&format!("{p}:3: \"class\" 1")), "{err}");
        let bad_net = "{\"arrival_s\": 0.1}\n{\"arrival_s\": 0.2, \"network\": 99}\n";
        let err = check(bad_net, 10, 0).unwrap_err();
        assert!(err.starts_with(&format!("{p}:2: \"network\" 99")), "{err}");
        // Lines past the run's request count are never read.
        assert_eq!(check(bad_net, 1, 0), Ok(()));
        let err = check("{\"arrival_s\": 0.2}\n{\"arrival_s\": 0.1}\n", 10, 0).unwrap_err();
        assert!(
            err.starts_with(&format!("{p}:2: trace must be sorted")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "sorted by arrival_s")]
    fn unsorted_trace_file_rejected() {
        let path = std::env::temp_dir().join(format!(
            "albireo_trace_unsorted_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, "{\"arrival_s\": 0.2}\n{\"arrival_s\": 0.1}\n").unwrap();
        let w = Workload {
            process: ArrivalProcess::TraceFile {
                path: path.to_string_lossy().into_owned(),
            },
            mix: vec![(0, 1.0)],
            classes: Vec::new(),
        };
        let result = std::panic::catch_unwind(|| w.generate(10, 0));
        std::fs::remove_file(&path).ok();
        std::panic::resume_unwind(result.unwrap_err());
    }

    #[test]
    fn stream_state_is_o1_for_generated_processes() {
        // The stream must not buffer requests: pulling one at a time from
        // a million-request stream touches only generator state.
        let w = Workload::poisson(1_000_000.0, 0);
        let mut s = w.stream(1_000_000, 42);
        let first = s.next().unwrap();
        assert_eq!(first.id, 0);
        let hundredth = s.nth(98).unwrap();
        assert_eq!(hundredth.id, 99);
        assert!(hundredth.arrival_s > first.arrival_s);
    }
}
