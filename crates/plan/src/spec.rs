//! Plan specifications: what workload the fleet must carry and what
//! service level it must hit.
//!
//! [`PlanSpec`] is the planner's single input. It reuses the runtime's
//! workload vocabulary (arrival processes, network mixes, multi-tenant
//! classes) and adds the search axes: which chip kinds may appear in a
//! fleet, how many chips a fleet may have, which batching policies and
//! [`AutoscalePolicy`] variants to consider, and the [`SloSpec`] every
//! candidate is judged against.
//!
//! Both types follow the workspace's `Display`/`parse` convention: the
//! `Display` form is canonical and `parse(display(x)) == x` **exactly**
//! (floats are rendered with `{}`, Rust's shortest round-trip
//! representation, so no precision is lost). Trace-backed arrival
//! processes are intentionally outside the grammar — a plan must be
//! reproducible from its one-line spec alone.

use albireo_runtime::grammar::Lexer;
use albireo_runtime::{
    ArrivalProcess, AutoscalePolicy, BatchPolicy, ClassSpec, FaultSpec, Workload,
};
use std::fmt;

/// The service-level objective candidates must meet to be feasible.
///
/// Grammar (comma-separated, `p99` required, any order):
///
/// ```text
/// p99<5ms[,attain>=0.95][,shed<=0.01]
/// ```
///
/// * `p99<T ms` — the run's 99th-percentile latency must not exceed `T`.
/// * `attain>=A` — every SLO-carrying tenant class must finish at least
///   fraction `A` of its *offered* requests within its own per-class
///   SLO (shed requests count as misses). Vacuous when the workload
///   declares no SLO classes.
/// * `shed<=S` — the run's shed rate must not exceed `S`. Defaults to
///   `0` (a feasible fleet completes everything it is offered), and the
///   canonical `Display` form omits the clause at the default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// 99th-percentile latency ceiling, ms.
    pub p99_ms: f64,
    /// Per-class SLO-attainment floor (`None` = not enforced).
    pub min_attainment: Option<f64>,
    /// Shed-rate ceiling (default 0.0).
    pub max_shed_rate: f64,
}

impl SloSpec {
    /// An SLO that only bounds p99 latency (and forbids shedding).
    pub fn p99(p99_ms: f64) -> SloSpec {
        SloSpec {
            p99_ms,
            min_attainment: None,
            max_shed_rate: 0.0,
        }
    }

    /// Parses the `p99<..` grammar documented on the type.
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        let mut lx = Lexer::new("slo", spec, ',');
        let (mut p99_ms, mut min_attainment, mut max_shed_rate) = (None, None, None);
        while let Some(clause) = lx.next() {
            let (slot, value) = if let Some(v) = clause.strip_prefix("p99<") {
                let v = v.strip_suffix("ms").unwrap_or(v);
                let ok = |t: &f64| t.is_finite() && *t > 0.0;
                (
                    &mut p99_ms,
                    lx.parse_where(v, "finite p99 bound in ms > 0", ok)?,
                )
            } else if let Some(v) = clause.strip_prefix("attain>=") {
                let ok = |a: &f64| *a > 0.0 && *a <= 1.0;
                (
                    &mut min_attainment,
                    lx.parse_where(v, "attainment floor in (0, 1]", ok)?,
                )
            } else if let Some(v) = clause.strip_prefix("shed<=") {
                let ok = |s: &f64| (0.0..1.0).contains(s);
                (
                    &mut max_shed_rate,
                    lx.parse_where(v, "shed bound in [0, 1)", ok)?,
                )
            } else {
                return Err(lx.expected(clause, "p99<MS[ms], attain>=A or shed<=S"));
            };
            if slot.replace(value).is_some() {
                return Err(lx.reject(clause, "duplicate clause"));
            }
        }
        Ok(SloSpec {
            p99_ms: p99_ms.ok_or_else(|| lx.missing("a p99<MS[ms] clause"))?,
            min_attainment,
            max_shed_rate: max_shed_rate.unwrap_or(0.0),
        })
    }
}

impl fmt::Display for SloSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p99<{}ms", self.p99_ms)?;
        if let Some(a) = self.min_attainment {
            write!(f, ",attain>={a}")?;
        }
        if self.max_shed_rate != 0.0 {
            write!(f, ",shed<={}", self.max_shed_rate)?;
        }
        Ok(())
    }
}

/// The planner's input: the workload to carry, the SLO to meet, and the
/// search space of candidate fleets.
///
/// Grammar — `;`-separated `key=value` pairs. `rate`, `slo`, and `chips`
/// are required; everything else has the default shown:
///
/// ```text
/// arrival=poisson;rate=2000;mix=0:1;requests=2000;screen=300;seed=42;
/// replicas=1;slo=p99<5ms;chips=albireo_9:C;max-chips=3;
/// policies=immediate;queue-cap=64;autoscale=static
/// ```
///
/// `autoscale` defaults to `static` (not `none`): a capacity planner
/// must charge idle power, or every fleet size reports the same energy
/// per request and "more chips" is free. `none` remains available for
/// comparing against the legacy no-idle-accounting engine.
///
/// * `arrival` — `poisson`, `bursty:<BURST>:<ON_S>:<OFF_S>`,
///   `diurnal:<AMPLITUDE>:<PERIOD_S>`, or
///   `flash:<SPIKE>:<AT_S>:<DECAY_S>` (parameters in the runtime's
///   [`ArrivalProcess`] units; the mean rate comes from `rate`).
/// * `mix` — comma list of `NETWORK_INDEX:WEIGHT` over the model zoo.
/// * `classes` — optional comma list of `NAME:WEIGHT[:SLO_MS]` tenant
///   classes ([`ClassSpec::parse_list`] grammar).
/// * `requests` / `screen` — full scoring run length and the shorter
///   screening prefix used to prune hopeless candidates.
/// * `replicas` — scoring runs per candidate (split-seed replicas).
/// * `chips` — `|`-separated fleet entries (e.g. `albireo_9:C`), the
///   chip kinds fleets are composed from.
/// * `max-chips` — largest fleet size searched.
/// * `policies` — `|`-separated batching policies: `immediate`,
///   `size:<N>`, `deadline:<USEC>[:<MAX>]`, or the canonical exact form
///   `deadline_s:<SECONDS>:<MAX>`.
/// * `queue-cap` — shared queue capacity, or `unbounded`.
/// * `autoscale` — `|`-separated [`AutoscalePolicy`] specs.
/// * `faults` — optional correlated-fault scenario every candidate is
///   scored under ([`FaultSpec`] grammar: `fail:`, `recover:`,
///   `degrade:`, `rack:`, `thermal:`, `crews:` clauses), compiled per
///   candidate fleet size. Omitted = healthy fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// The request stream every candidate serves.
    pub workload: Workload,
    /// Full-length scoring run, requests.
    pub requests: usize,
    /// Screening-run prefix length, requests.
    pub screen_requests: usize,
    /// Master seed; replica `r` runs with a split of it.
    pub seed: u64,
    /// Scoring replicas per candidate.
    pub replicas: usize,
    /// The SLO candidates must meet.
    pub slo: SloSpec,
    /// Chip kinds (fleet-entry specs) fleets are composed from.
    pub chip_kinds: Vec<String>,
    /// Largest fleet size searched.
    pub max_chips: usize,
    /// Batching policies searched.
    pub policies: Vec<BatchPolicy>,
    /// Shared queue capacity (`usize::MAX` = unbounded).
    pub queue_capacity: usize,
    /// Autoscaling policies searched.
    pub autoscale: Vec<AutoscalePolicy>,
    /// Correlated-fault scenario candidates are scored under (empty =
    /// healthy fleet), compiled against each candidate's fleet size.
    pub faults: FaultSpec,
}

impl PlanSpec {
    /// A p99-only plan over Poisson arrivals of network 0, searching
    /// fleets of up to `max_chips` copies of one chip kind under
    /// immediate dispatch with no autoscaling.
    pub fn poisson(rate_rps: f64, p99_ms: f64, chip_kind: &str, max_chips: usize) -> PlanSpec {
        PlanSpec {
            workload: Workload::poisson(rate_rps, 0),
            requests: 2000,
            screen_requests: 300,
            seed: 42,
            replicas: 1,
            slo: SloSpec::p99(p99_ms),
            chip_kinds: vec![chip_kind.to_string()],
            max_chips,
            policies: vec![BatchPolicy::Immediate],
            queue_capacity: 64,
            autoscale: vec![AutoscalePolicy::Static],
            faults: FaultSpec::none(),
        }
    }

    /// Parses the `key=value;...` grammar documented on the type.
    pub fn parse(spec: &str) -> Result<PlanSpec, String> {
        let mut lx = Lexer::new("plan spec", spec, ';');
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        while let Some(part) = lx.next() {
            if part.is_empty() {
                continue;
            }
            let mut entry = lx.split(part, ';');
            let key = entry
                .prefix('=')
                .ok_or_else(|| lx.expected(part, "key=value"))?;
            if pairs.iter().any(|&(seen, _)| seen == key) {
                return Err(lx.reject(key, format_args!("duplicate key `{key}`")));
            }
            pairs.push((key, entry.rest("value")?.trim()));
        }
        let mut take = |key: &str| -> Option<&str> {
            let at = pairs.iter().position(|&(k, _)| k == key)?;
            Some(pairs.remove(at).1)
        };
        let positive = |v: &f64| v.is_finite() && *v > 0.0;
        let number = |value: Option<&str>, what: &str, default: usize| match value {
            Some(v) => lx.parse(v, what),
            None => Ok(default),
        };

        let rate = take("rate").ok_or_else(|| lx.missing("rate=<RPS>"))?;
        let rate_rps = lx.parse_where(rate, "finite rate > 0", positive)?;
        let process = ArrivalProcess::parse(take("arrival").unwrap_or("poisson"), rate_rps)?;

        let mut mix: Vec<(usize, f64)> = Vec::new();
        let mix_list = take("mix").unwrap_or("0:1");
        for entry in lx.split(mix_list, ',') {
            let mut e = lx.split(entry, ':');
            let idx = e.field("network index")?;
            if mix.iter().any(|&(seen, _)| seen == idx) {
                return Err(lx.reject(entry, format_args!("duplicate network {idx} in mix")));
            }
            mix.push((idx, e.positive("mix weight")?));
            e.end()?;
        }

        let classes = match take("classes") {
            Some(list) => ClassSpec::parse_list(list, None)?,
            None => Vec::new(),
        };
        let plan = PlanSpec {
            workload: Workload {
                process,
                mix,
                classes,
            },
            requests: number(take("requests"), "requests", 2000)?,
            screen_requests: number(take("screen"), "screen", 300)?,
            seed: take("seed").map_or(Ok(42), |v| lx.parse(v, "seed"))?,
            replicas: number(take("replicas"), "replicas", 1)?,
            slo: SloSpec::parse(take("slo").ok_or_else(|| lx.missing("slo=p99<..ms"))?)?,
            chip_kinds: distinct(
                &lx,
                take("chips").ok_or_else(|| lx.missing("chips=<ENTRY>|.."))?,
                |kind| match kind.is_empty() {
                    true => Err(lx.expected(kind, "a chip kind")),
                    false => Ok(kind.to_string()),
                },
            )?,
            max_chips: number(take("max-chips"), "max-chips", 3)?,
            policies: distinct(
                &lx,
                take("policies").unwrap_or("immediate"),
                BatchPolicy::parse,
            )?,
            queue_capacity: match take("queue-cap") {
                None => 64,
                Some("unbounded") => usize::MAX,
                Some(v) => lx.parse(v, "queue-cap (an integer or `unbounded`)")?,
            },
            autoscale: distinct(
                &lx,
                take("autoscale").unwrap_or("static"),
                AutoscalePolicy::parse,
            )?,
            faults: take("faults").map_or(Ok(FaultSpec::none()), FaultSpec::parse)?,
        };
        if let Some(&(key, _)) = pairs.first() {
            return Err(lx.reject(key, format_args!("unknown plan spec key `{key}`")));
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Checks the invariants the search relies on. `parse` calls this;
    /// hand-built specs should too before planning.
    pub fn validate(&self) -> Result<(), String> {
        match self.workload.process {
            ArrivalProcess::Trace { .. } | ArrivalProcess::TraceFile { .. } => {
                return Err(
                    "trace arrivals are not plannable (a plan must be reproducible from its \
                     spec line alone)"
                        .to_string(),
                )
            }
            _ => {}
        }
        if self.workload.mix.is_empty() {
            return Err("plan workload mix is empty".to_string());
        }
        if self.requests == 0 {
            return Err("requests must be at least 1".to_string());
        }
        if self.screen_requests == 0 || self.screen_requests > self.requests {
            return Err("screen run length must be in 1..=requests".to_string());
        }
        if self.replicas == 0 {
            return Err("replicas must be at least 1".to_string());
        }
        if self.chip_kinds.is_empty() {
            return Err("plan spec names no chip kinds".to_string());
        }
        for kind in &self.chip_kinds {
            // Candidate fleets repeat kinds (2, 3, ... copies); a fixed
            // alias would collide with itself on the second copy.
            if kind.contains('=') {
                return Err(format!(
                    "chip kind `{kind}` carries an alias; the planner sizes fleets by \
                     repeating kinds, so aliases would collide — use the bare \
                     `<chip>[:<estimate>]` form"
                ));
            }
        }
        if self.max_chips == 0 {
            return Err("max-chips must be at least 1".to_string());
        }
        if self.policies.is_empty() {
            return Err("plan spec names no batching policies".to_string());
        }
        if self.autoscale.is_empty() {
            return Err("plan spec names no autoscale policies".to_string());
        }
        if self.queue_capacity == 0 {
            return Err("queue-cap must be at least 1 (or `unbounded`)".to_string());
        }
        Ok(())
    }
}

/// Parses a `|`-separated list whose items must be distinct.
fn distinct<'a, T: PartialEq>(
    lx: &Lexer<'a>,
    list: &'a str,
    parse: impl Fn(&'a str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    for item in lx.split(list, '|') {
        let value = parse(item)?;
        if items.contains(&value) {
            return Err(lx.reject(item, "duplicate entry"));
        }
        items.push(value);
    }
    Ok(items)
}

impl fmt::Display for PlanSpec {
    /// The canonical spec line: every key emitted (except `classes` when
    /// empty), floats via `{}` so `parse` reproduces the value exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "arrival={};rate={}",
            self.workload.process.spec(),
            self.workload.process.mean_rate_rps()
        )?;
        write!(f, ";mix=")?;
        for (i, (idx, weight)) in self.workload.mix.iter().enumerate() {
            write!(f, "{}{idx}:{weight}", if i > 0 { "," } else { "" })?;
        }
        if !self.workload.classes.is_empty() {
            write!(f, ";classes=")?;
            for (i, c) in self.workload.classes.iter().enumerate() {
                write!(f, "{}{}:{}", if i > 0 { "," } else { "" }, c.name, c.weight)?;
                if let Some(slo) = c.slo_ms {
                    write!(f, ":{slo}")?;
                }
            }
        }
        write!(
            f,
            ";requests={};screen={};seed={};replicas={};slo={}",
            self.requests, self.screen_requests, self.seed, self.replicas, self.slo
        )?;
        write!(f, ";chips={}", self.chip_kinds.join("|"))?;
        write!(f, ";max-chips={};policies=", self.max_chips)?;
        for (i, p) in self.policies.iter().enumerate() {
            write!(f, "{}{p}", if i > 0 { "|" } else { "" })?;
        }
        if self.queue_capacity == usize::MAX {
            write!(f, ";queue-cap=unbounded")?;
        } else {
            write!(f, ";queue-cap={}", self.queue_capacity)?;
        }
        write!(f, ";autoscale=")?;
        for (i, a) in self.autoscale.iter().enumerate() {
            write!(f, "{}{a}", if i > 0 { "|" } else { "" })?;
        }
        // Appended last, and only when present, so fault-free spec lines
        // (and their digests) are byte-identical to the pre-fault era.
        if !self.faults.is_empty() {
            write!(f, ";faults={}", self.faults)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_parses_and_round_trips() {
        let slo = SloSpec::parse("p99<5ms").unwrap();
        assert_eq!(slo, SloSpec::p99(5.0));
        assert_eq!(slo.to_string(), "p99<5ms");

        let full = SloSpec::parse("p99<2.5ms,attain>=0.95,shed<=0.01").unwrap();
        assert_eq!(full.p99_ms, 2.5);
        assert_eq!(full.min_attainment, Some(0.95));
        assert_eq!(full.max_shed_rate, 0.01);
        assert_eq!(SloSpec::parse(&full.to_string()).unwrap(), full);

        // Order-insensitive on input; canonical on output.
        let swapped = SloSpec::parse("shed<=0.01,p99<2.5,attain>=0.95").unwrap();
        assert_eq!(swapped, full);

        for bad in [
            "attain>=0.9",       // p99 missing
            "p99<0ms",           // non-positive bound
            "p99<5ms,p99<6ms",   // duplicate clause
            "p99<5ms,attain>=2", // out of range
            "p99<5ms,shed<=1",   // shed must stay below 1
            "p99<5ms,foo=bar",   // unknown clause
        ] {
            assert!(SloSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn plan_spec_round_trips_through_display() {
        let line = "arrival=bursty:8:0.01:0.04;rate=1500;mix=0:3,3:1;\
                    classes=interactive:3:5,batch:1;requests=1200;screen=200;seed=7;\
                    replicas=2;slo=p99<5ms,shed<=0.02;chips=albireo_9:C|albireo_27:C;\
                    max-chips=3;policies=immediate|size:4|deadline_s:0.0001:6;\
                    queue-cap=128;autoscale=none|static|elastic:8:0.002:1";
        let spec = PlanSpec::parse(line).unwrap();
        assert_eq!(PlanSpec::parse(&spec.to_string()).unwrap(), spec);
        assert_eq!(spec.chip_kinds.len(), 2);
        assert_eq!(spec.policies.len(), 3);
        assert_eq!(spec.autoscale.len(), 3);
        assert_eq!(spec.workload.classes[0].slo_ms, Some(5.0));
        assert_eq!(spec.workload.classes[1].slo_ms, None);
        assert!(spec.faults.is_empty());
        // A fault-free spec line never mentions faults (byte-compatible
        // with pre-fault spec lines and their golden digests).
        assert!(!spec.to_string().contains("faults"));
    }

    #[test]
    fn plan_spec_faults_round_trip_and_sit_last() {
        let line = "rate=2000;slo=p99<5ms;chips=albireo_9:C;\
                    faults=thermal:0-2@0.01-0.03:2,fail:1@0.02,crews:2:0.05:7";
        let spec = PlanSpec::parse(line).unwrap();
        assert!(!spec.faults.is_empty());
        let canon = spec.to_string();
        assert!(
            canon.ends_with(";faults=thermal:0-2@0.01-0.03:2,fail:1@0.02,crews:2:0.05:7"),
            "faults must be the final key: {canon}"
        );
        assert_eq!(PlanSpec::parse(&canon).unwrap(), spec);
        // The compiled scenario tracks the candidate fleet size.
        assert!(spec.faults.compile(3).events().len() > spec.faults.compile(1).events().len());
    }

    #[test]
    fn plan_spec_defaults_fill_in() {
        let spec = PlanSpec::parse("rate=2000;slo=p99<5ms;chips=albireo_9:C").unwrap();
        assert_eq!(
            spec.workload.process,
            ArrivalProcess::Poisson { rate_rps: 2000.0 }
        );
        assert_eq!(spec.workload.mix, vec![(0, 1.0)]);
        assert!(spec.workload.classes.is_empty());
        assert_eq!(spec.requests, 2000);
        assert_eq!(spec.screen_requests, 300);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.replicas, 1);
        assert_eq!(spec.max_chips, 3);
        assert_eq!(spec.policies, vec![BatchPolicy::Immediate]);
        assert_eq!(spec.queue_capacity, 64);
        assert_eq!(spec.autoscale, vec![AutoscalePolicy::Static]);
        // The default-filled spec still round-trips.
        assert_eq!(PlanSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn plan_spec_rejects_malformed_input() {
        for bad in [
            "slo=p99<5ms;chips=albireo_9:C",                       // rate missing
            "rate=2000;chips=albireo_9:C",                         // slo missing
            "rate=2000;slo=p99<5ms",                               // chips missing
            "rate=0;slo=p99<5ms;chips=albireo_9:C",                // bad rate
            "rate=2000;slo=p99<5ms;chips=albireo_9:C|albireo_9:C", // duplicate chip kind
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;rate=3000",   // duplicate key
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;bogus=1",     // unknown key
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;mix=0:1,0:2", // duplicate network
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;screen=0",    // screen too short
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;screen=9999", // screen > requests
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;queue-cap=0", // zero queue
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;policies=immediate|immediate",
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;autoscale=none|none",
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;arrival=bursty:8:0.01", // missing field
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;arrival=warp",          // unknown shape
            "rate=2000;slo=p99<5ms;chips=edge=albireo_9:C",                  // aliased kind
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;faults=melt:0@1",       // unknown clause
            "rate=2000;slo=p99<5ms;chips=albireo_9:C;faults=fail:0@-1",      // negative time
        ] {
            assert!(PlanSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn deadline_seconds_form_is_exact_where_microseconds_are_not() {
        // The canonical form stores seconds directly: whatever f64 the
        // spec carries is reproduced bit-exactly by parse(display).
        let policy = BatchPolicy::Deadline {
            max_wait_s: 0.000123456789,
            max_size: 6,
        };
        let spec = policy.to_string();
        assert_eq!(BatchPolicy::parse(&spec).unwrap(), policy);
        // The CLI microsecond grammar still parses.
        assert_eq!(
            BatchPolicy::parse("deadline:100:6").unwrap(),
            BatchPolicy::Deadline {
                max_wait_s: 100.0 / 1e6,
                max_size: 6
            }
        );
    }
}
