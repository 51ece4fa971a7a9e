//! The deterministic discrete-event serving engine.
//!
//! One simulation run processes a seeded request stream against a fleet
//! on a virtual clock. Events are ordered by `(time, class, sequence)`:
//!
//! * `time` — the f64 virtual instant, compared through its IEEE-754 bit
//!   pattern (all event times are non-negative and finite, where that
//!   ordering is exact);
//! * `class` — a fixed tie-break between same-instant events: fleet
//!   **faults** apply first (a chip failing at *t* never picks up work
//!   arriving at *t*), then batch **completions** (freed chips are
//!   visible to same-instant arrivals), then **arrivals**, then batching
//!   **timers**;
//! * `sequence` — insertion order, making the whole ordering total.
//!
//! Internal events (faults, completions, timers) live in the
//! [`crate::queue::EventQueue`] hybrid. **Arrivals never enter the
//! queue**: the request stream is generated lazily
//! ([`crate::workload::RequestStream`]) and merged against the queue
//! head one lookahead request at a time — arrivals are the only class-2
//! events and the stream yields them in nondecreasing time order, so the
//! merged order is exactly the historical all-events-in-one-heap order
//! while the engine holds O(fleet + in-flight) state instead of
//! O(requests). Latency statistics accumulate into a
//! `QuantileSketch` + running sums (`RunTotals`), and
//! the run digest folds incrementally, so a 10⁶–10⁷-request run needs
//! no per-request memory beyond the (capped) record sample.
//!
//! Because the ordering is total and every stochastic choice draws from
//! the seeded workload generator, a run is a pure function of
//! `(fleet, config)` — byte-identical across hosts, thread counts, and
//! repetitions. Parallelism happens one level up (replica and sweep
//! fan-out in [`crate::study`]), never inside a run.
//!
//! Dispatch model: a single bounded FIFO feeds every chip. Whenever a
//! chip is free and the queue head is *ready* under the batching policy,
//! the dispatcher forms a single-network micro-batch from the earliest
//! queued requests of the head's network and places it on the
//! lowest-indexed free chip **that supports the head's network** — in a
//! heterogeneous fleet a reported electronic design only serves the
//! networks its source paper measured, so dispatch is FIFO with
//! head-of-line blocking, never reordering. Chips taken offline finish
//! their in-flight batch; requests still queued when the run ends with no
//! serviceable chip are counted as shed, so total chip loss degrades
//! goodput instead of erroring.

use crate::alerts::AlertPolicy;
use crate::autoscale::AutoscalePolicy;
use crate::fault::{FaultKind, FaultScenario};
use crate::fleet::{FleetConfig, ServiceOracle};
use crate::policy::{AdmissionControl, BatchPolicy};
use crate::queue::{EventKey, EventQueue};
use crate::report::{ChipReport, ClassTotals, RequestRecord, RunTotals, ServiceReport};
use crate::snapshot::SimSnapshot;
use crate::workload::{Request, RequestStream, Workload};
use albireo_obs::{fnv1a, track, ArgValue, Obs};
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;

/// Event class of streamed arrivals in the total order (between
/// completions and timers).
const ARRIVAL_CLASS: u8 = 2;

/// Everything one simulation run needs besides the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// The request stream.
    pub workload: Workload,
    /// Requests offered before the stream ends.
    pub requests: usize,
    /// Master seed for the run.
    pub seed: u64,
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Admission control.
    pub admission: AdmissionControl,
    /// Timed fault scenario.
    pub faults: FaultScenario,
    /// Per-request records retained on the report (dispatch order).
    /// The digest and all metrics always cover every request; the cap
    /// only bounds the report's `records` sample — set it to 0 for
    /// million-request runs.
    pub record_cap: usize,
    /// Fleet provisioning policy. [`AutoscalePolicy::None`] reproduces
    /// the historical engine byte for byte (no warm-up states, no idle
    /// power); `Static`/`Elastic` charge idle power and, for `Elastic`,
    /// spin chips up and down on queue depth.
    pub autoscale: AutoscalePolicy,
    /// Burn-rate alerting policy applied to every SLO-carrying request
    /// class. Inert on classless (or SLO-free) workloads — such runs
    /// keep their historical reports and snapshots byte for byte.
    pub alert: AlertPolicy,
}

impl ServeConfig {
    /// A seeded Poisson run with immediate dispatch and default admission
    /// control, serving network index `network`.
    pub fn poisson(rate_rps: f64, requests: usize, seed: u64, network: usize) -> ServeConfig {
        ServeConfig {
            workload: Workload::poisson(rate_rps, network),
            requests,
            seed,
            policy: BatchPolicy::Immediate,
            admission: AdmissionControl::default(),
            faults: FaultScenario::none(),
            record_cap: usize::MAX,
            autoscale: AutoscalePolicy::None,
            alert: AlertPolicy::standard(),
        }
    }
}

impl fmt::Display for ServeConfig {
    /// One human-oriented line, for CLI diagnostics (`{:?}` stays the
    /// exhaustive derive for debugging).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let capacity = if self.admission.queue_capacity == usize::MAX {
            "unbounded".to_string()
        } else {
            self.admission.queue_capacity.to_string()
        };
        write!(
            f,
            "{} arrivals @ {:.0} rps, {} requests, seed {}, policy {}, queue {}, {} fault(s)",
            self.workload.process.label(),
            self.workload.process.mean_rate_rps(),
            self.requests,
            self.seed,
            self.policy.label(),
            capacity,
            self.faults.len(),
        )?;
        if let (Some(first), Some(last)) = (
            self.faults.sorted_events().first().map(|e| e.at_s),
            self.faults.sorted_events().last().map(|e| e.at_s),
        ) {
            write!(f, " in [{first:.3}, {last:.3}] s")?;
        }
        if !self.workload.classes.is_empty() {
            let mut names = String::new();
            for (i, c) in self.workload.classes.iter().enumerate() {
                if i > 0 {
                    names.push('+');
                }
                names.push_str(&c.name);
                if let Some(slo) = c.slo_ms {
                    let _ = write!(names, "<{slo}ms");
                }
            }
            write!(f, ", classes {names}")?;
            if self.workload.classes.iter().any(|c| c.slo_ms.is_some()) {
                write!(f, ", alerts {}", self.alert.label())?;
            }
        }
        if self.record_cap != usize::MAX {
            write!(f, ", record cap {}", self.record_cap)?;
        }
        if self.autoscale != AutoscalePolicy::None {
            write!(f, ", autoscale {}", self.autoscale)?;
        }
        Ok(())
    }
}

/// Queue-resident event payloads. Arrivals are streamed, never queued.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EventKind {
    Fault(FaultKind),
    Completion {
        chip: usize,
    },
    /// A spun-up chip finished warming and becomes serviceable.
    WarmedUp {
        chip: usize,
    },
    Timer,
}

impl EventKind {
    fn class(&self) -> u8 {
        match self {
            EventKind::Fault(_) => 0,
            // Warm-up completions share the completion class: capacity
            // freed (or gained) at t is visible to arrivals at t.
            EventKind::Completion { .. } | EventKind::WarmedUp { .. } => 1,
            EventKind::Timer => 3,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChipState {
    pub(crate) online: bool,
    pub(crate) plcgs_down: usize,
    pub(crate) busy: bool,
    pub(crate) busy_s: f64,
    pub(crate) energy_j: f64,
    pub(crate) served: u64,
    pub(crate) batches: u64,
    /// Autoscaling: parked chips are deprovisioned (no power, no work).
    pub(crate) parked: bool,
    /// Autoscaling: warming chips draw idle power but cannot serve yet.
    pub(crate) warming: bool,
    /// Provisioned seconds accumulated over completed park cycles (the
    /// open cycle since `provisioned_at_s` is closed at park/end time).
    pub(crate) provisioned_s: f64,
    /// Start of the current provisioned interval (meaningful while not
    /// parked).
    pub(crate) provisioned_at_s: f64,
    /// Elastic spin-ups of this chip.
    pub(crate) spin_ups: u64,
}

struct Sim<'a> {
    fleet: &'a FleetConfig,
    cfg: &'a ServeConfig,
    obs: &'a Obs,
    /// Dispatch tables and memoized costs, built once per run.
    oracle: ServiceOracle,
    events: EventQueue<EventKind>,
    seq: u64,
    queue: VecDeque<Request>,
    /// The batch being dispatched, reused across dispatches.
    batch: Vec<Request>,
    chips: Vec<ChipState>,
    stream: RequestStream,
    /// Lookahead request — the next arrival not yet merged into the run.
    next_arrival: Option<Request>,
    totals: RunTotals,
}

impl<'a> Sim<'a> {
    fn push(&mut self, time_s: f64, kind: EventKind) {
        debug_assert!(time_s.is_finite() && time_s >= 0.0);
        let key = EventKey::new(time_s.to_bits(), kind.class(), self.seq);
        self.seq += 1;
        self.events.push(key, kind);
    }

    /// Pulls the next arrival from the lazy stream, validating its
    /// coordinates against the fleet.
    fn pull_arrival(&mut self) -> Option<Request> {
        let r = self.stream.next()?;
        assert!(
            r.network < self.fleet.models.len(),
            "request network {} outside the fleet's model table",
            r.network
        );
        assert!(
            self.totals.classes.is_empty() || r.class < self.totals.classes.len(),
            "request class {} outside the workload's class table",
            r.class
        );
        Some(r)
    }

    /// Surviving compute groups on `chip` (PLCGs for Albireo, MAC units
    /// for PIXEL, engines for DEAP-CNN; the state field keeps its
    /// historical `plcgs_down` name).
    fn groups_active(&self, chip: usize) -> usize {
        self.oracle
            .compute_groups(chip)
            .saturating_sub(self.chips[chip].plcgs_down)
    }

    fn serviceable(&self, chip: usize, network: usize) -> bool {
        let c = &self.chips[chip];
        c.online
            && !c.busy
            && !c.parked
            && !c.warming
            && self.groups_active(chip) > 0
            && self.oracle.supports(chip, network)
    }

    /// Whether at least `n` queued requests target `network` (early-exit
    /// scan, so Immediate dispatch never walks the queue).
    fn same_network_at_least(&self, network: usize, n: usize) -> bool {
        let mut seen = 0;
        for r in &self.queue {
            if r.network == network {
                seen += 1;
                if seen >= n {
                    return true;
                }
            }
        }
        false
    }

    /// Whether the queue head may be dispatched now under the policy.
    fn head_ready(&self, now: f64) -> bool {
        let Some(head) = self.queue.front() else {
            return false;
        };
        let drained = self.next_arrival.is_none();
        match self.cfg.policy {
            BatchPolicy::Immediate => true,
            BatchPolicy::SizeN { size } => {
                self.same_network_at_least(head.network, size) || drained
            }
            BatchPolicy::Deadline {
                max_wait_s,
                max_size,
            } => {
                self.same_network_at_least(head.network, max_size)
                    || now >= head.arrival_s + max_wait_s
                    || drained
            }
        }
    }

    /// Folds one completed request into the streaming accumulators (and
    /// the capped record sample).
    fn complete_request(&mut self, req: &Request, chip: usize, start_s: f64, finish_s: f64) {
        let fold = |d: u64, bits: u64| d.rotate_left(7) ^ bits;
        let t = &mut self.totals;
        let mut f = t.rec_fold;
        f = fold(f, req.id);
        f = fold(f, req.network as u64);
        f = fold(f, chip as u64);
        f = fold(f, req.arrival_s.to_bits());
        f = fold(f, start_s.to_bits());
        f = fold(f, finish_s.to_bits());
        t.rec_fold = f;
        t.rec_count += 1;
        let latency_ms = (finish_s - req.arrival_s) * 1e3;
        t.latency_ms.observe(latency_ms);
        t.latency_sum_ms += latency_ms;
        t.wait_sum_ms += (start_s - req.arrival_s) * 1e3;
        t.max_finish_s = t.max_finish_s.max(finish_s);
        if let Some(cs) = t.classes.get_mut(req.class) {
            cs.completed += 1;
            cs.latency_sum_ms += latency_ms;
            cs.latency_ms.observe(latency_ms);
            let hit = cs.slo_ms.is_some_and(|slo| latency_ms <= slo);
            if hit {
                cs.slo_hits += 1;
            }
            if cs.slo_ms.is_some() {
                // The outcome is known at dispatch (depth-first batch
                // execution fixes finish times then), so the alert clock
                // advances monotonically with the event clock.
                t.alerts.observe(req.class, start_s, !hit);
            }
        }
        if t.records.len() < self.cfg.record_cap {
            t.records.push(RequestRecord {
                id: req.id,
                network: req.network,
                chip,
                arrival_s: req.arrival_s,
                start_s,
                finish_s,
            });
        }
    }

    /// Dispatches ready work onto free chips until one side is exhausted.
    fn try_dispatch(&mut self, now: f64) {
        loop {
            if !self.head_ready(now) {
                return;
            }
            let network = self.queue.front().expect("head exists").network;
            let Some(chip) = (0..self.chips.len()).find(|&c| self.serviceable(c, network)) else {
                return;
            };
            let mut batch = std::mem::take(&mut self.batch);
            take_batch(&mut self.queue, self.cfg.policy.max_batch(), &mut batch);
            let cost = self
                .oracle
                .cost(self.fleet, chip, self.groups_active(chip), network);
            let busy = cost.batch_latency_s(batch.len());
            let energy = cost.batch_energy_j(batch.len());
            if self.obs.is_enabled() {
                // Head-of-line-blocking wait: time from arrival to the
                // dispatch instant, per request in the batch.
                let wait_h = self.obs.histogram("serve.wait_s");
                for req in &batch {
                    wait_h.observe(now - req.arrival_s);
                }
                self.obs.record_instant(
                    track::DISPATCH,
                    now,
                    "batch_formed",
                    vec![
                        ("chip", ArgValue::from(chip)),
                        ("network", ArgValue::from(network)),
                        ("n", ArgValue::from(batch.len())),
                        ("queue", ArgValue::from(self.queue.len())),
                    ],
                );
                self.obs.record_counter_sample(
                    track::DISPATCH,
                    now,
                    "queue_depth",
                    ArgValue::from(self.queue.len()),
                );
                albireo_obs::span!(
                    self.obs,
                    track = track::CHIP_BASE + chip as u32,
                    begin = now,
                    end = now + busy,
                    self.fleet.models[network].name(),
                    n = batch.len(),
                    network = network,
                );
                self.obs.counter("serve.batches").add(1);
                self.obs.counter("serve.dispatched").add(batch.len() as u64);
            }
            let state = &mut self.chips[chip];
            state.busy = true;
            state.busy_s += busy;
            state.energy_j += energy;
            state.served += batch.len() as u64;
            state.batches += 1;
            for (i, req) in batch.iter().enumerate() {
                // Depth-first execution is sequential within the batch:
                // request i completes after setup + (i+1) inferences.
                let finish_s = now + cost.batch_setup_s + (i + 1) as f64 * cost.item_latency_s;
                self.complete_request(req, chip, now, finish_s);
            }
            self.batch = batch;
            self.push(now + busy, EventKind::Completion { chip });
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::ChipOffline { chip } => {
                if let Some(c) = self.chips.get_mut(chip) {
                    c.online = false;
                }
            }
            FaultKind::ChipOnline { chip } => {
                if let Some(c) = self.chips.get_mut(chip) {
                    c.online = true;
                    c.plcgs_down = 0;
                }
            }
            FaultKind::PlcgOffline { chip, count } => {
                if let Some(c) = self.chips.get_mut(chip) {
                    c.plcgs_down += count;
                }
            }
            FaultKind::PlcgRestore { chip, count } => {
                if let Some(c) = self.chips.get_mut(chip) {
                    c.plcgs_down = c.plcgs_down.saturating_sub(count);
                }
            }
        }
    }

    /// Elastic scale-up: while the queue holds at least `up_depth`
    /// pending requests per chip already warming (so in-flight warm-ups
    /// discount further spin-ups), unpark the lowest-indexed parked chip
    /// and schedule its warm-up completion. A pure function of DES state
    /// at an event instant, so determinism is untouched.
    fn autoscale_up(&mut self, now: f64) {
        let AutoscalePolicy::Elastic {
            up_depth, warmup_s, ..
        } = self.cfg.autoscale
        else {
            return;
        };
        loop {
            let warming = self.chips.iter().filter(|c| c.warming).count();
            if self.queue.len() < up_depth * (warming + 1) {
                return;
            }
            let Some(idx) = self.chips.iter().position(|c| c.parked) else {
                return;
            };
            let c = &mut self.chips[idx];
            c.parked = false;
            c.warming = true;
            c.provisioned_at_s = now;
            c.spin_ups += 1;
            self.push(now + warmup_s, EventKind::WarmedUp { chip: idx });
            if self.obs.is_enabled() {
                self.obs.record_instant(
                    track::DISPATCH,
                    now,
                    "scale_up",
                    vec![
                        ("chip", ArgValue::from(idx)),
                        ("queue", ArgValue::from(self.queue.len())),
                    ],
                );
                self.obs.counter("serve.spin_ups").add(1);
            }
        }
    }

    /// Elastic scale-down: when the system is fully idle (empty queue,
    /// nothing busy or warming toward queued work), park every
    /// provisioned chip above the `min_chips` floor, closing its
    /// provisioned interval.
    fn autoscale_down(&mut self, now: f64) {
        let AutoscalePolicy::Elastic { min_chips, .. } = self.cfg.autoscale else {
            return;
        };
        if !self.queue.is_empty() || self.chips.iter().any(|c| c.busy) {
            return;
        }
        for idx in min_chips..self.chips.len() {
            let c = &mut self.chips[idx];
            if !c.parked && !c.warming && !c.busy {
                c.provisioned_s += now - c.provisioned_at_s;
                c.parked = true;
                if self.obs.is_enabled() {
                    self.obs.record_instant(
                        track::DISPATCH,
                        now,
                        "scale_down",
                        vec![("chip", ArgValue::from(idx))],
                    );
                }
            }
        }
    }

    /// Records one shed request (admission rejection or end-of-run
    /// stranding) in the totals. A shed request misses its SLO by
    /// definition, so it burns the class's error budget at `at_s`.
    fn shed_request(&mut self, class: usize, at_s: f64) {
        self.totals.shed += 1;
        if let Some(cs) = self.totals.classes.get_mut(class) {
            cs.shed += 1;
            if cs.slo_ms.is_some() {
                self.totals.alerts.observe(class, at_s, true);
            }
        }
    }

    fn on_arrival(&mut self, req: Request) {
        let now = req.arrival_s;
        self.totals.offered += 1;
        self.totals.last_arrival_s = now;
        if self.queue.len() >= self.cfg.admission.queue_capacity {
            self.shed_request(req.class, now);
            if self.obs.is_enabled() {
                self.obs.record_instant(
                    track::DISPATCH,
                    now,
                    "shed",
                    vec![
                        ("id", ArgValue::from(req.id)),
                        ("network", ArgValue::from(req.network)),
                    ],
                );
                self.obs.counter("serve.shed").add(1);
            }
        } else {
            if let BatchPolicy::Deadline { max_wait_s, .. } = self.cfg.policy {
                // The timer recomputes the readiness deadline with the
                // same expression head_ready uses, so the comparison is
                // exact.
                self.push(req.arrival_s + max_wait_s, EventKind::Timer);
            }
            self.queue.push_back(req);
            self.totals.max_queue_depth = self.totals.max_queue_depth.max(self.queue.len());
            if self.obs.is_enabled() {
                self.obs.record_counter_sample(
                    track::DISPATCH,
                    now,
                    "queue_depth",
                    ArgValue::from(self.queue.len()),
                );
            }
        }
        self.autoscale_up(now);
        self.try_dispatch(now);
    }

    fn run(self) -> ServiceReport {
        match self.run_checkpointed(None) {
            ServeOutcome::Completed(report) => *report,
            ServeOutcome::Halted { .. } => unreachable!("halting requires a checkpointer"),
        }
    }

    /// Captures the full engine state at checkpoint boundary `at_s`.
    /// Everything strictly before the boundary has been applied; events
    /// at or after it are still pending.
    fn capture(&self, at_s: f64, checkpoints: u64) -> SimSnapshot {
        SimSnapshot {
            fingerprint: config_fingerprint(self.fleet, self.cfg),
            requests: self.cfg.requests,
            seed: self.cfg.seed,
            at_s,
            checkpoints,
            seq: self.seq,
            next_arrival: self.next_arrival.clone(),
            totals: self.totals.clone(),
            queue: self.queue.iter().cloned().collect(),
            events: self
                .events
                .sorted_entries()
                .into_iter()
                .map(|(k, kind)| (k.time_bits(), k.class(), k.seq(), kind))
                .collect(),
            peak_event_queue: self.events.peak_len(),
            chips: self.chips.clone(),
        }
    }

    fn run_checkpointed(mut self, mut ckpt: Option<Checkpointer<'_>>) -> ServeOutcome {
        loop {
            // Merge the arrival lookahead against the event queue on the
            // shared `(time, class)` key. Arrivals are the only class-2
            // events, so this two-way merge reproduces the historical
            // one-heap total order exactly: cross-class ties resolve by
            // class, and same-class ties only arise within one side,
            // where insertion order is already preserved.
            let take_arrival = match (&self.next_arrival, self.events.peek_key()) {
                (Some(r), Some(k)) => {
                    (r.arrival_s.to_bits(), ARRIVAL_CLASS) < (k.time_bits(), k.class())
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            // Emit any checkpoint boundary the clock is about to cross.
            // Boundaries land *between* event instants: the snapshot sees
            // every effect strictly before `boundary` and none at or
            // after it, so a same-instant tie never splits.
            if let Some(c) = ckpt.as_mut() {
                let t = if take_arrival {
                    self.next_arrival.as_ref().expect("checked above").arrival_s
                } else {
                    self.events.peek_key().expect("checked above").time_s()
                };
                loop {
                    let boundary = (c.emitted + 1) as f64 * c.every_s;
                    if t < boundary {
                        break;
                    }
                    c.emitted += 1;
                    let snap = self.capture(boundary, c.emitted);
                    if !(c.on_checkpoint)(&snap) {
                        return ServeOutcome::Halted {
                            checkpoints: c.emitted,
                            at_s: boundary,
                        };
                    }
                }
            }
            if take_arrival {
                let req = self.next_arrival.take().expect("checked above");
                self.next_arrival = self.pull_arrival();
                self.on_arrival(req);
                continue;
            }
            let (key, kind) = self.events.pop().expect("checked above");
            let now = key.time_s();
            match kind {
                EventKind::Fault(kind) => {
                    if self.obs.is_enabled() {
                        self.obs.record_instant(
                            track::DISPATCH,
                            now,
                            "fault",
                            vec![("chip", ArgValue::from(kind.chip()))],
                        );
                        self.obs.counter("serve.faults").add(1);
                    }
                    self.apply_fault(kind);
                    self.try_dispatch(now);
                }
                EventKind::Completion { chip } => {
                    self.chips[chip].busy = false;
                    self.try_dispatch(now);
                    self.autoscale_down(now);
                }
                EventKind::WarmedUp { chip } => {
                    self.chips[chip].warming = false;
                    self.try_dispatch(now);
                    // A chip that warmed into an already-drained burst
                    // parks again immediately.
                    self.autoscale_down(now);
                }
                EventKind::Timer => {
                    self.try_dispatch(now);
                }
            }
        }
        // Requests stranded in the queue (every chip offline or fully
        // degraded, no event left to free one) are shed, not an error:
        // the service degrades to whatever the surviving fleet completed.
        let stranded = self.queue.len() as u64;
        // Stranded sheds are scored at the run's end instant — it is ≥
        // every prior event time, so the alert clock stays monotone.
        let end_s = self.totals.max_finish_s.max(self.totals.last_arrival_s);
        while let Some(r) = self.queue.pop_front() {
            self.shed_request(r.class, end_s);
        }
        if stranded > 0 && self.obs.is_enabled() {
            self.obs.counter("serve.shed").add(stranded);
        }
        ServeOutcome::Completed(Box::new(self.finish()))
    }

    fn finish(mut self) -> ServiceReport {
        let obs = self.obs;
        self.totals.peak_event_queue = self.events.peak_len();
        // Close every open provisioned interval at the makespan, then
        // charge idle power (provisioned seconds minus busy seconds) when
        // the policy accounts for it. Under `AutoscalePolicy::None`
        // nothing here runs and chip energies are the legacy per-batch
        // sums, bit for bit.
        let accounts_idle = self.cfg.autoscale.accounts_idle();
        if accounts_idle {
            let end_s = self.totals.max_finish_s.max(self.totals.last_arrival_s);
            for (i, state) in self.chips.iter_mut().enumerate() {
                if !state.parked {
                    state.provisioned_s += end_s - state.provisioned_at_s;
                }
                let idle_s = (state.provisioned_s - state.busy_s).max(0.0);
                state.energy_j += self.fleet.chips[i].accel.idle_power_w() * idle_s;
            }
        }
        let per_chip: Vec<ChipReport> = self
            .fleet
            .chips
            .iter()
            .zip(&self.chips)
            .map(|(spec, state)| {
                let idle_s = (state.provisioned_s - state.busy_s).max(0.0);
                ChipReport {
                    name: spec.name.clone(),
                    served: state.served,
                    batches: state.batches,
                    busy_s: state.busy_s,
                    energy_j: state.energy_j,
                    online_at_end: state.online && spec.accel.compute_groups() > state.plcgs_down,
                    plcgs_down: state.plcgs_down,
                    provisioned_s: if accounts_idle {
                        state.provisioned_s
                    } else {
                        0.0
                    },
                    idle_energy_j: if accounts_idle {
                        spec.accel.idle_power_w() * idle_s
                    } else {
                        0.0
                    },
                    spin_ups: state.spin_ups,
                }
            })
            .collect();
        if obs.is_enabled() {
            obs.sketch("serve.latency_ms")
                .merge_from(&self.totals.latency_ms);
        }
        let report = ServiceReport::from_run(self.cfg, self.fleet, per_chip, self.totals);
        if obs.is_enabled() {
            obs.counter("serve.completed").add(report.completed);
            obs.gauge("serve.max_queue_depth")
                .set(report.max_queue_depth as f64);
            obs.gauge("serve.peak_event_queue")
                .set(report.peak_event_queue as f64);
            obs.gauge("serve.sketch_buckets")
                .set(report.sketch_buckets as f64);
            let util_h = obs.histogram("serve.chip_utilization");
            for chip in &report.per_chip {
                if report.makespan_s > 0.0 {
                    util_h.observe(chip.busy_s / report.makespan_s);
                }
            }
        }
        report
    }
}

/// Moves the queue head's micro-batch into `batch` (cleared first): the
/// earliest queued requests of the head's network, up to `max`, in queue
/// order. The common case — a contiguous same-network prefix — pops in
/// place; an interleaved queue is compacted in place, so the requests
/// left behind keep their order and nothing is allocated once `batch`
/// has grown to the policy's bound.
fn take_batch(queue: &mut VecDeque<Request>, max: usize, batch: &mut Vec<Request>) {
    batch.clear();
    let network = queue.front().expect("head exists").network;
    while batch.len() < max && queue.front().is_some_and(|r| r.network == network) {
        batch.push(queue.pop_front().expect("front exists"));
    }
    // Unless the batch is full, the front is now another network's: scan
    // on until it fills, sliding each kept request down over the taken
    // ones, then drop the taken ones' slots.
    let mut kept = 0;
    let mut scan = 0;
    while batch.len() < max && scan < queue.len() {
        if queue[scan].network == network {
            batch.push(queue[scan].clone());
        } else {
            if kept < scan {
                queue.swap(kept, scan);
            }
            kept += 1;
        }
        scan += 1;
    }
    queue.drain(kept..scan);
}

/// Runs one serving simulation to completion.
pub fn simulate(fleet: &FleetConfig, cfg: &ServeConfig) -> ServiceReport {
    simulate_observed(fleet, cfg, &Obs::disabled())
}

/// [`simulate`], recording the run into `obs`: per-batch spans on each
/// chip's track (named after the batch's network), batch-formation /
/// shed / fault instants and queue-depth samples on the dispatcher
/// track, head-of-line wait and per-chip utilization histograms, the
/// end-to-end latency quantile sketch (`serve.latency_ms`), and serving
/// counters plus memory-bound gauges (`serve.peak_event_queue`,
/// `serve.sketch_buckets`). All timestamps come from the DES virtual
/// clock, so with a fixed seed the recorded trace is byte-reproducible.
///
/// The returned report is identical to [`simulate`]'s — instrumentation
/// only reads simulator state — and a disabled `obs` reduces every
/// record site to one branch.
pub fn simulate_observed(fleet: &FleetConfig, cfg: &ServeConfig, obs: &Obs) -> ServiceReport {
    new_sim(fleet, cfg, obs).run()
}

/// Builds a fresh simulation at virtual time zero: seeded stream, fault
/// events queued, arrival lookahead primed.
fn new_sim<'a>(fleet: &'a FleetConfig, cfg: &'a ServeConfig, obs: &'a Obs) -> Sim<'a> {
    assert!(!fleet.chips.is_empty(), "fleet must contain a chip");
    assert!(!fleet.models.is_empty(), "fleet must serve a network");
    // Chips beyond the elastic floor start parked; `min_chips` beyond the
    // fleet size just means a fully static fleet.
    let floor = match cfg.autoscale {
        AutoscalePolicy::Elastic { min_chips, .. } => {
            assert!(min_chips >= 1, "elastic floor must keep one chip up");
            min_chips.min(fleet.chips.len())
        }
        _ => fleet.chips.len(),
    };
    let stream = cfg.workload.stream(cfg.requests, cfg.seed);
    let classes = stream
        .classes()
        .iter()
        .map(|c| ClassTotals::new(&c.name, c.slo_ms))
        .collect();
    let mut sim = Sim {
        fleet,
        cfg,
        obs,
        oracle: ServiceOracle::new(fleet),
        events: EventQueue::new(),
        seq: 0,
        queue: VecDeque::new(),
        batch: Vec::new(),
        chips: (0..fleet.chips.len())
            .map(|i| ChipState {
                online: true,
                plcgs_down: 0,
                busy: false,
                busy_s: 0.0,
                energy_j: 0.0,
                served: 0,
                batches: 0,
                parked: i >= floor,
                warming: false,
                provisioned_s: 0.0,
                provisioned_at_s: 0.0,
                spin_ups: 0,
            })
            .collect(),
        stream,
        next_arrival: None,
        totals: RunTotals::with_alerts(classes, cfg.alert),
    };
    for fault in cfg.faults.sorted_events() {
        sim.push(fault.at_s, EventKind::Fault(fault.kind));
    }
    sim.next_arrival = sim.pull_arrival();
    sim
}

/// Periodic checkpoint emission state for [`Sim::run_checkpointed`].
struct Checkpointer<'cb> {
    /// Virtual seconds between checkpoint boundaries.
    every_s: f64,
    /// Boundaries emitted so far (resume continues the count).
    emitted: u64,
    /// Receives each snapshot; returning `false` halts the run.
    on_checkpoint: &'cb mut dyn FnMut(&SimSnapshot) -> bool,
}

/// How a checkpointed serving run ended.
#[derive(Debug)]
pub enum ServeOutcome {
    /// The run finished; the report is identical to [`simulate`]'s.
    Completed(Box<ServiceReport>),
    /// The checkpoint callback returned `false` at this boundary; the
    /// snapshot it received is the resume point.
    Halted {
        /// Checkpoints emitted, including the halting one.
        checkpoints: u64,
        /// The boundary's virtual time, s.
        at_s: f64,
    },
}

/// FNV-1a over the fleet label and the full config — the identity a
/// snapshot is bound to. Resume with anything else is refused.
pub(crate) fn config_fingerprint(fleet: &FleetConfig, cfg: &ServeConfig) -> u64 {
    fnv1a(format!("{}|{:?}", fleet.label(), cfg).as_bytes())
}

/// Runs one serving simulation, emitting a [`SimSnapshot`] at every
/// multiple of `every_s` on the virtual clock. The callback returns
/// `true` to keep running or `false` to halt at that boundary (after,
/// e.g., persisting the snapshot). Reports from checkpointed runs are
/// byte-identical to [`simulate`]'s — checkpoints only read state.
pub fn simulate_checkpointed<F: FnMut(&SimSnapshot) -> bool>(
    fleet: &FleetConfig,
    cfg: &ServeConfig,
    every_s: f64,
    mut on_checkpoint: F,
) -> ServeOutcome {
    assert!(
        every_s > 0.0 && every_s.is_finite(),
        "checkpoint interval must be positive and finite"
    );
    let obs = Obs::disabled();
    let sim = new_sim(fleet, cfg, &obs);
    sim.run_checkpointed(Some(Checkpointer {
        every_s,
        emitted: 0,
        on_checkpoint: &mut on_checkpoint,
    }))
}

/// Resumes a run from a [`SimSnapshot`] captured by
/// [`simulate_checkpointed`] under the *same* fleet and config.
///
/// The workload stream is re-seeded and fast-forwarded `offered` draws,
/// then the regenerated lookahead is cross-checked bit for bit against
/// the snapshot's — a mismatched workload, seed, or request count is
/// an error, not a silently different run. `every_s > 0` continues
/// periodic checkpoints on the original boundary grid (it must equal
/// the interval the snapshot was taken on); `every_s == 0` runs to
/// completion without further checkpoints.
///
/// The resumed run's [`ServiceReport`] — including its digest and JSON
/// — is byte-identical to the uninterrupted run's.
pub fn resume_checkpointed<F: FnMut(&SimSnapshot) -> bool>(
    fleet: &FleetConfig,
    cfg: &ServeConfig,
    snapshot: &SimSnapshot,
    every_s: f64,
    mut on_checkpoint: F,
) -> Result<ServeOutcome, String> {
    if snapshot.requests != cfg.requests {
        return Err(format!(
            "snapshot was taken at {} requests, config asks for {}",
            snapshot.requests, cfg.requests
        ));
    }
    if snapshot.seed != cfg.seed {
        return Err(format!(
            "snapshot was taken with seed {}, config uses {}",
            snapshot.seed, cfg.seed
        ));
    }
    let expected = config_fingerprint(fleet, cfg);
    if snapshot.fingerprint != expected {
        return Err(format!(
            "snapshot fingerprint {:016x} does not match this fleet/config ({expected:016x}) — \
             resume needs the exact original fleet, workload, policy, and fault scenario",
            snapshot.fingerprint
        ));
    }
    if snapshot.chips.len() != fleet.chips.len() {
        return Err(format!(
            "snapshot holds {} chip(s), fleet has {}",
            snapshot.chips.len(),
            fleet.chips.len()
        ));
    }
    // The engine indexes its chip, network and class tables with these
    // directly, so a re-digested snapshot may not point past them.
    for (_, _, _, kind) in &snapshot.events {
        if let EventKind::Completion { chip } | EventKind::WarmedUp { chip } = *kind {
            if chip >= fleet.chips.len() {
                return Err(format!(
                    "snapshot event names chip {chip}, fleet has {}",
                    fleet.chips.len()
                ));
            }
        }
    }
    // A classless workload tags every request class 0.
    let classes = snapshot.totals.classes.len().max(1);
    for r in snapshot.queue.iter().chain(&snapshot.next_arrival) {
        if r.network >= fleet.models.len() {
            return Err(format!(
                "snapshot request {} names network {}, fleet serves {}",
                r.id,
                r.network,
                fleet.models.len()
            ));
        }
        if r.class >= classes {
            return Err(format!(
                "snapshot request {} names class {}, workload defines {}",
                r.id, r.class, classes
            ));
        }
    }
    let mut stream = cfg.workload.stream(cfg.requests, cfg.seed);
    {
        let classes = stream.classes();
        if classes.len() != snapshot.totals.classes.len() {
            return Err(format!(
                "snapshot has {} request class(es), workload defines {}",
                snapshot.totals.classes.len(),
                classes.len()
            ));
        }
        for (spec, have) in classes.iter().zip(&snapshot.totals.classes) {
            if spec.name != have.name || spec.slo_ms != have.slo_ms {
                return Err(format!(
                    "request class `{}` does not match the snapshot's `{}`",
                    spec.name, have.name
                ));
            }
        }
    }
    // Fast-forward the stream past every arrival the snapshot consumed,
    // then cross-check the regenerated lookahead.
    for i in 0..snapshot.totals.offered {
        if stream.next().is_none() {
            return Err(format!(
                "workload stream ended after {i} request(s) while replaying {} — \
                 the workload does not match the snapshot",
                snapshot.totals.offered
            ));
        }
    }
    let regenerated = stream.next();
    if regenerated != snapshot.next_arrival {
        return Err(
            "replayed workload diverges from the snapshot's arrival lookahead — \
             the workload or seed does not match"
                .to_string(),
        );
    }
    let ckpt = if every_s > 0.0 {
        let grid_at = snapshot.checkpoints as f64 * every_s;
        if grid_at.to_bits() != snapshot.at_s.to_bits() {
            return Err(format!(
                "checkpoint interval {} s is off the snapshot's grid (checkpoint {} at {} s) — \
                 resume with the original --checkpoint-every",
                every_s, snapshot.checkpoints, snapshot.at_s
            ));
        }
        Some(Checkpointer {
            every_s,
            emitted: snapshot.checkpoints,
            on_checkpoint: &mut on_checkpoint,
        })
    } else {
        None
    };
    let entries = snapshot
        .events
        .iter()
        .map(|(time_bits, class, seq, kind)| {
            (EventKey::new(*time_bits, *class, *seq), kind.clone())
        })
        .collect();
    let obs = Obs::disabled();
    let sim = Sim {
        fleet,
        cfg,
        obs: &obs,
        oracle: ServiceOracle::new(fleet),
        events: EventQueue::from_sorted(entries, snapshot.peak_event_queue),
        seq: snapshot.seq,
        queue: snapshot.queue.iter().cloned().collect(),
        batch: Vec::new(),
        chips: snapshot.chips.clone(),
        stream,
        next_arrival: snapshot.next_arrival.clone(),
        totals: snapshot.totals.clone(),
    };
    Ok(sim.run_checkpointed(ckpt))
}

/// `(track, label)` pairs for every track a traced serving run uses —
/// the dispatcher, the engine, and one per chip (labelled
/// `chipN:<name>`). Feed to [`albireo_obs::to_chrome_trace`] so viewers
/// name the rows.
pub fn trace_track_names(fleet: &FleetConfig) -> Vec<(u32, String)> {
    let mut names = vec![
        (track::DISPATCH, "dispatch".to_string()),
        (track::ENGINE, "engine".to_string()),
    ];
    for (i, chip) in fleet.chips.iter().enumerate() {
        names.push((
            track::CHIP_BASE + i as u32,
            format!("chip{i}:{}", chip.name),
        ));
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::workload::ClassSpec;

    fn small_fleet() -> FleetConfig {
        FleetConfig::paper_pair()
    }

    #[test]
    fn observed_run_matches_plain_run_exactly() {
        let fleet = small_fleet();
        let cfg = ServeConfig::poisson(3000.0, 300, 42, 0);
        let obs = Obs::enabled();
        let observed = simulate_observed(&fleet, &cfg, &obs);
        let plain = simulate(&fleet, &cfg);
        assert_eq!(observed, plain, "instrumentation must not change results");
        assert!(!obs.drain_events().is_empty());
    }

    #[test]
    fn trace_spans_are_balanced_with_nondecreasing_time() {
        let fleet = small_fleet();
        let cfg = ServeConfig::poisson(3000.0, 300, 42, 0);
        let obs = Obs::enabled();
        simulate_observed(&fleet, &cfg, &obs);
        let events = obs.drain_events();
        assert!(events.windows(2).all(|w| w[0].ts_s <= w[1].ts_s));
        // Every Begin has an End on its track, and depth never dips
        // below zero in drain order.
        let mut depth: std::collections::BTreeMap<u32, i64> = std::collections::BTreeMap::new();
        for e in &events {
            match e.phase {
                albireo_obs::Phase::Begin => *depth.entry(e.track).or_insert(0) += 1,
                albireo_obs::Phase::End => {
                    let d = depth.entry(e.track).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "unbalanced End on track {}", e.track);
                }
                _ => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unclosed spans: {depth:?}");
    }

    #[test]
    fn trace_digest_is_reproducible_and_wall_clock_neutral() {
        let fleet = small_fleet();
        let cfg = ServeConfig::poisson(3000.0, 300, 42, 0);
        let digest = |wall: bool| {
            let obs = Obs::enabled();
            obs.set_wall_clock(wall);
            simulate_observed(&fleet, &cfg, &obs);
            albireo_obs::events_digest(&obs.drain_events())
        };
        assert_eq!(digest(false), digest(false));
        assert_eq!(digest(false), digest(true), "wall clock must not leak");
    }

    #[test]
    fn serving_metrics_cover_the_run() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(50_000.0, 400, 5, 1);
        cfg.admission = AdmissionControl::bounded(16);
        let obs = Obs::enabled();
        let report = simulate_observed(&fleet, &cfg, &obs);
        let snap = obs.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("serve.completed"), report.completed);
        assert_eq!(counter("serve.shed"), report.shed);
        assert_eq!(counter("serve.dispatched"), report.completed);
        let wait = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "serve.wait_s")
            .map(|(_, h)| h.clone())
            .unwrap();
        assert_eq!(wait.count(), report.completed);
        let util = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "serve.chip_utilization")
            .map(|(_, h)| h.clone())
            .unwrap();
        assert_eq!(util.count(), fleet.chips.len() as u64);
        assert!(util.max().unwrap() <= 1.0 + 1e-9);
        // The latency sketch rides along in the obs registry.
        let sketch = snap
            .sketches
            .iter()
            .find(|(n, _)| n == "serve.latency_ms")
            .map(|(_, s)| s.clone())
            .unwrap();
        assert_eq!(sketch.count(), report.completed);
    }

    #[test]
    fn display_impls_are_single_line_summaries() {
        let fleet = small_fleet();
        let cfg = ServeConfig::poisson(3000.0, 300, 42, 0);
        let f = format!("{fleet}");
        let c = format!("{cfg}");
        assert!(!f.contains('\n') && !c.contains('\n'));
        assert!(f.contains("2 chip(s)"));
        assert!(c.contains("seed 42"));
        assert!(c.contains("poisson"));
    }

    #[test]
    fn trace_track_names_cover_every_chip() {
        let fleet = small_fleet();
        let names = trace_track_names(&fleet);
        assert_eq!(names.len(), 2 + fleet.chips.len());
        assert!(names
            .iter()
            .any(|(t, n)| *t == track::DISPATCH && n == "dispatch"));
        assert!(names
            .iter()
            .any(|(t, n)| *t == track::CHIP_BASE && n.starts_with("chip0:")));
    }

    #[test]
    fn every_offered_request_is_completed_or_shed() {
        let fleet = small_fleet();
        let cfg = ServeConfig::poisson(5000.0, 400, 7, 0);
        let report = simulate(&fleet, &cfg);
        assert_eq!(report.offered, 400);
        assert_eq!(report.completed + report.shed, 400);
        assert!(report.completed > 0);
    }

    #[test]
    fn runs_are_reproducible() {
        let fleet = small_fleet();
        let cfg = ServeConfig::poisson(3000.0, 300, 42, 0);
        let a = simulate(&fleet, &cfg);
        let b = simulate(&fleet, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn latencies_are_causal_and_ordered() {
        let fleet = small_fleet();
        let cfg = ServeConfig::poisson(2000.0, 200, 3, 1);
        let report = simulate(&fleet, &cfg);
        for r in &report.records {
            assert!(r.start_s >= r.arrival_s);
            assert!(r.finish_s > r.start_s);
        }
        assert!(report.p50_ms > 0.0);
        assert!(report.p50_ms <= report.p95_ms);
        assert!(report.p95_ms <= report.p99_ms);
        assert!(report.p99_ms <= report.p999_ms);
    }

    #[test]
    fn overload_sheds_instead_of_queueing_forever() {
        let fleet = small_fleet();
        // VGG16 at ~2.9 ms/inference on two chips sustains well under
        // 1000 rps; offering 50k rps must shed hard.
        let mut cfg = ServeConfig::poisson(50_000.0, 500, 5, 1);
        cfg.admission = AdmissionControl::bounded(16);
        let report = simulate(&fleet, &cfg);
        assert!(report.shed > 0, "expected shedding under overload");
        assert!(report.shed_rate > 0.3, "shed rate {}", report.shed_rate);
        assert!(report.completed > 0);
    }

    #[test]
    fn batching_amortizes_setup_for_small_networks() {
        let fleet = small_fleet();
        // AlexNet has a ~31% weight-programming overhead per dispatch:
        // size-8 micro-batching must beat immediate dispatch on energy
        // per request and sustain a backlog with less total busy time.
        let mut immediate = ServeConfig::poisson(12_000.0, 600, 11, 0);
        immediate.admission = AdmissionControl::unbounded();
        let mut batched = immediate.clone();
        batched.policy = BatchPolicy::SizeN { size: 8 };
        let a = simulate(&fleet, &immediate);
        let b = simulate(&fleet, &batched);
        assert_eq!(a.completed, 600);
        assert_eq!(b.completed, 600);
        assert!(
            b.energy_per_request_j < a.energy_per_request_j,
            "batched {} vs immediate {}",
            b.energy_per_request_j,
            a.energy_per_request_j
        );
        assert!(b.mean_batch_size > 2.0);
    }

    #[test]
    fn deadline_policy_bounds_head_waiting() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(100.0, 50, 13, 0);
        cfg.policy = BatchPolicy::Deadline {
            max_wait_s: 200e-6,
            max_size: 8,
        };
        cfg.admission = AdmissionControl::unbounded();
        let report = simulate(&fleet, &cfg);
        assert_eq!(report.completed, 50);
        // At 100 rps the stream is sparse: batches time out rather than
        // fill, and no request waits unboundedly for batch-mates.
        for r in &report.records {
            let wait = r.start_s - r.arrival_s;
            assert!(
                wait <= 201e-6 + 8.0 * 0.2e-3 + 1e-6,
                "request {} waited {wait}",
                r.id
            );
        }
    }

    #[test]
    fn chip_failure_degrades_gracefully() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(2000.0, 400, 17, 0);
        cfg.faults = FaultScenario::none().with(0.02, FaultKind::ChipOffline { chip: 1 });
        let healthy = simulate(&fleet, &ServeConfig::poisson(2000.0, 400, 17, 0));
        let faulty = simulate(&fleet, &cfg);
        assert!(faulty.completed > 0, "goodput must stay nonzero");
        assert!(faulty.goodput_rps > 0.0);
        assert!(
            faulty.per_chip[1].served <= healthy.per_chip[1].served,
            "offline chip cannot serve more"
        );
        assert!(!faulty.per_chip[1].online_at_end);
    }

    #[test]
    fn total_fleet_loss_sheds_the_remainder_without_error() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(2000.0, 300, 19, 0);
        cfg.faults = FaultScenario::none()
            .with(0.01, FaultKind::ChipOffline { chip: 0 })
            .with(0.01, FaultKind::ChipOffline { chip: 1 });
        let report = simulate(&fleet, &cfg);
        assert_eq!(report.completed + report.shed, 300);
        assert!(report.completed > 0, "work before the failure completes");
        assert!(report.shed > 0, "work after the failure is shed");
    }

    #[test]
    fn plcg_degradation_slows_but_keeps_serving() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(1500.0, 300, 23, 1);
        cfg.faults = FaultScenario::none().with(0.0, FaultKind::PlcgOffline { chip: 0, count: 6 });
        let healthy = simulate(&fleet, &ServeConfig::poisson(1500.0, 300, 23, 1));
        let degraded = simulate(&fleet, &cfg);
        assert_eq!(degraded.completed + degraded.shed, 300);
        assert!(degraded.completed > 0);
        assert!(
            degraded.p99_ms >= healthy.p99_ms,
            "degradation cannot improve tails: {} < {}",
            degraded.p99_ms,
            healthy.p99_ms
        );
        assert!(degraded.per_chip[0].plcgs_down == 6);
    }

    #[test]
    fn chip_recovery_restores_capacity() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(2000.0, 400, 29, 0);
        cfg.faults = FaultScenario::none()
            .with(0.01, FaultKind::ChipOffline { chip: 1 })
            .with(0.05, FaultKind::ChipOnline { chip: 1 });
        let report = simulate(&fleet, &cfg);
        assert_eq!(report.completed, 400 - report.shed);
        assert!(report.per_chip[1].online_at_end);
        assert!(report.per_chip[1].served > 0);
    }

    #[test]
    fn utilization_is_bounded_and_energy_positive() {
        let fleet = small_fleet();
        let report = simulate(&fleet, &ServeConfig::poisson(4000.0, 300, 31, 0));
        for chip in &report.per_chip {
            let util = chip.busy_s / report.makespan_s;
            assert!((0.0..=1.0 + 1e-9).contains(&util), "utilization {util}");
        }
        assert!(report.energy_per_request_j > 0.0);
        assert!(report.mean_batch_size >= 1.0);
    }

    #[test]
    fn heterogeneous_fleet_serves_end_to_end() {
        let fleet = FleetConfig::parse(
            "albireo_27:A, deap:M, eyeriss",
            albireo_nn::zoo::all_benchmarks(),
        )
        .unwrap();
        let mut cfg = ServeConfig::poisson(2000.0, 300, 41, 0);
        cfg.workload.mix = vec![(0, 1.0), (1, 1.0)];
        let a = simulate(&fleet, &cfg);
        let b = simulate(&fleet, &cfg);
        assert_eq!(a, b, "mixed fleets must stay deterministic");
        assert_eq!(a.completed + a.shed, 300);
        assert!(a.completed > 0);
        assert!(
            a.per_chip[0].served > 0,
            "the fast Albireo chip should pick up work"
        );
    }

    #[test]
    fn unsupported_networks_never_land_on_reported_chips() {
        // Eyeriss reports AlexNet/VGG16 only; ResNet18 and MobileNetV1
        // requests must route past it to the Albireo chip.
        let fleet =
            FleetConfig::parse("eyeriss, albireo_9:C", albireo_nn::zoo::all_benchmarks()).unwrap();
        let mut cfg = ServeConfig::poisson(1500.0, 200, 43, 0);
        cfg.workload.mix = vec![(0, 1.0), (2, 1.0), (3, 1.0)];
        let report = simulate(&fleet, &cfg);
        assert_eq!(report.completed + report.shed, 200);
        for r in &report.records {
            if r.chip == 0 {
                assert_eq!(r.network, 0, "eyeriss served network {}", r.network);
            }
        }
        let resnet_served = report.records.iter().filter(|r| r.network == 2).count();
        assert!(
            resnet_served > 0,
            "albireo must absorb unsupported networks"
        );
    }

    #[test]
    fn mixed_network_batches_stay_single_network() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(8000.0, 400, 37, 0);
        cfg.workload.mix = vec![(0, 1.0), (3, 1.0)];
        cfg.policy = BatchPolicy::SizeN { size: 4 };
        cfg.admission = AdmissionControl::unbounded();
        let report = simulate(&fleet, &cfg);
        // Group records by (chip, start): each dispatch must be
        // single-network.
        use std::collections::BTreeMap;
        let mut batches: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
        for r in &report.records {
            batches
                .entry((r.chip, r.start_s.to_bits()))
                .or_default()
                .push(r.network);
        }
        for (key, networks) in batches {
            assert!(
                networks.windows(2).all(|w| w[0] == w[1]),
                "mixed batch at {key:?}: {networks:?}"
            );
        }
    }

    #[test]
    fn record_cap_bounds_the_sample_but_not_the_metrics() {
        let fleet = small_fleet();
        let full = ServeConfig::poisson(3000.0, 300, 42, 0);
        let mut capped = full.clone();
        capped.record_cap = 10;
        let a = simulate(&fleet, &full);
        let b = simulate(&fleet, &capped);
        assert_eq!(b.records.len(), 10);
        assert_eq!(a.records[..10], b.records[..]);
        assert_eq!(a.digest(), b.digest(), "digest covers all records");
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99_ms, b.p99_ms);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
    }

    #[test]
    fn per_class_slo_reports_cover_all_traffic() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(4000.0, 500, 42, 0);
        cfg.workload = cfg.workload.with_classes(vec![
            ClassSpec::with_slo("interactive", 3.0, 5.0),
            ClassSpec::best_effort("batch", 1.0),
        ]);
        cfg.admission = AdmissionControl::bounded(32);
        let report = simulate(&fleet, &cfg);
        assert_eq!(report.classes.len(), 2);
        let total: u64 = report.classes.iter().map(|c| c.completed + c.shed).sum();
        assert_eq!(total, report.offered, "classes partition the traffic");
        let interactive = &report.classes[0];
        assert!(interactive.completed > 0);
        let att = interactive.slo_attainment.expect("has an SLO");
        assert!((0.0..=1.0).contains(&att), "attainment {att}");
        assert_eq!(report.classes[1].slo_attainment, None, "best-effort");
        assert!(report.to_json().contains("\"interactive\""));
    }

    #[test]
    fn classless_run_digest_is_unchanged_by_class_machinery() {
        // The class plumbing must be invisible when no classes are
        // configured: same digest as a pre-class-era run (pinned by the
        // golden CSV) and an empty classes section.
        let fleet = small_fleet();
        let report = simulate(&fleet, &ServeConfig::poisson(3000.0, 300, 42, 0));
        assert!(report.classes.is_empty());
        assert!(report.to_json().contains("\"classes\": [\n  ],"));
    }

    #[test]
    fn autoscale_none_is_byte_identical_to_the_legacy_engine() {
        // `AutoscalePolicy::None` is the default on every constructor;
        // a config that sets it explicitly must not move the digest.
        let fleet = small_fleet();
        let base = ServeConfig::poisson(3000.0, 300, 42, 0);
        let mut explicit = base.clone();
        explicit.autoscale = AutoscalePolicy::None;
        let a = simulate(&fleet, &base);
        let b = simulate(&fleet, &explicit);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert!(a
            .per_chip
            .iter()
            .all(|c| c.provisioned_s == 0.0 && c.idle_energy_j == 0.0 && c.spin_ups == 0));
    }

    #[test]
    fn static_provisioning_charges_the_photonic_idle_floor() {
        let fleet = small_fleet();
        let base = ServeConfig::poisson(2000.0, 200, 7, 0);
        let mut accounted = base.clone();
        accounted.autoscale = AutoscalePolicy::Static;
        let legacy = simulate(&fleet, &base);
        let s = simulate(&fleet, &accounted);
        // Same service decisions: only the energy account changes.
        assert_eq!(s.completed, legacy.completed);
        assert_eq!(s.p99_ms, legacy.p99_ms);
        assert!(s.energy_total_j > legacy.energy_total_j);
        for c in &s.per_chip {
            assert!((c.provisioned_s - s.makespan_s).abs() < 1e-12);
            assert!(c.idle_energy_j > 0.0, "idle floor must be charged");
        }
        let idle: f64 = s.per_chip.iter().map(|c| c.idle_energy_j).sum();
        assert!((s.energy_total_j - legacy.energy_total_j - idle).abs() < 1e-9);
    }

    #[test]
    fn elastic_floor_parks_spare_chips_and_spins_up_under_load() {
        let fleet = small_fleet();
        // Rate high enough that one albireo_9 falls behind AlexNet
        // (~0.46 ms/req incl. setup): the queue backs up past the
        // up-depth and chip 1 spins up with a 200 µs warm-up.
        let mut cfg = ServeConfig::poisson(6000.0, 400, 11, 0);
        cfg.admission = AdmissionControl::unbounded();
        cfg.autoscale = AutoscalePolicy::Elastic {
            up_depth: 4,
            warmup_s: 200e-6,
            min_chips: 1,
        };
        let report = simulate(&fleet, &cfg);
        assert_eq!(report.completed, 400);
        assert!(
            report.per_chip[1].spin_ups > 0,
            "overload must spin up the parked chip"
        );
        assert!(report.per_chip[1].served > 0);
        // The parked chip is provisioned for less than the run.
        assert!(report.per_chip[1].provisioned_s < report.makespan_s);
        assert!(report.per_chip[0].provisioned_s >= report.per_chip[1].provisioned_s);
    }

    #[test]
    fn warming_chips_are_unavailable_until_warmed() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(6000.0, 300, 11, 0);
        cfg.admission = AdmissionControl::unbounded();
        // Warm-up far beyond the run horizon: the spare chip spins up
        // but never becomes serviceable.
        cfg.autoscale = AutoscalePolicy::Elastic {
            up_depth: 4,
            warmup_s: 1e6,
            min_chips: 1,
        };
        let report = simulate(&fleet, &cfg);
        assert_eq!(report.completed, 300);
        assert_eq!(report.per_chip[1].served, 0, "warming chip cannot serve");
        assert!(report.per_chip[1].spin_ups > 0);
        assert_eq!(report.per_chip[0].served, 300);
    }

    #[test]
    fn elastic_beats_static_on_energy_at_matched_service() {
        // The planner's headline scenario, at engine level: a fleet
        // sized for peaks pays the photonic idle floor all run under
        // Static; Elastic parks the spare chip off-peak and spends
        // strictly less energy while completing the same requests.
        let fleet = small_fleet();
        let mut base = ServeConfig::poisson(1500.0, 300, 13, 0);
        base.admission = AdmissionControl::unbounded();
        let mut stat = base.clone();
        stat.autoscale = AutoscalePolicy::Static;
        let mut elastic = base.clone();
        elastic.autoscale = AutoscalePolicy::Elastic {
            up_depth: 8,
            warmup_s: 500e-6,
            min_chips: 1,
        };
        let s = simulate(&fleet, &stat);
        let e = simulate(&fleet, &elastic);
        assert_eq!(s.completed, 300);
        assert_eq!(e.completed, 300);
        assert!(
            e.energy_total_j < s.energy_total_j,
            "elastic {} J vs static {} J",
            e.energy_total_j,
            s.energy_total_j
        );
    }

    #[test]
    fn display_mentions_autoscale_only_when_configured() {
        let mut cfg = ServeConfig::poisson(3000.0, 300, 42, 0);
        assert!(!format!("{cfg}").contains("autoscale"));
        cfg.autoscale = AutoscalePolicy::Elastic {
            up_depth: 4,
            warmup_s: 0.0005,
            min_chips: 1,
        };
        let line = format!("{cfg}");
        assert!(line.contains("autoscale elastic:4:0.0005:1"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn display_header_covers_the_full_config() {
        // Golden diagnostic header: every newer serve dimension (fault
        // span, classes with SLOs, alert policy, record cap, autoscale)
        // shows up, on one line, exactly once.
        let mut cfg = ServeConfig::poisson(3000.0, 300, 42, 0);
        let base = format!("{cfg}");
        assert_eq!(
            base,
            "poisson arrivals @ 3000 rps, 300 requests, seed 42, \
             policy immediate, queue 64, 0 fault(s)",
            "the classic header must stay byte-stable"
        );
        cfg.workload = cfg.workload.with_classes(vec![
            ClassSpec::with_slo("interactive", 3.0, 5.0),
            ClassSpec::best_effort("batch", 1.0),
        ]);
        cfg.faults = FaultScenario::none()
            .with(0.02, FaultKind::ChipOffline { chip: 1 })
            .with(0.05, FaultKind::ChipOnline { chip: 1 });
        cfg.record_cap = 64;
        cfg.autoscale = AutoscalePolicy::Static;
        let line = format!("{cfg}");
        assert_eq!(
            line,
            "poisson arrivals @ 3000 rps, 300 requests, seed 42, \
             policy immediate, queue 64, 2 fault(s) in [0.020, 0.050] s, \
             classes interactive<5ms+batch, \
             alerts slo 0.999 fast 300/3600x14.4 slow 21600/259200x6, \
             record cap 64, autoscale static"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn burn_rate_alerts_fire_deterministically() {
        // An overloaded bounded queue sheds interactive traffic: every
        // shed burns the error budget, so the burn-rate rules fire.
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(60_000.0, 800, 42, 0);
        cfg.workload = cfg.workload.with_classes(vec![
            ClassSpec::with_slo("interactive", 3.0, 5.0),
            ClassSpec::best_effort("batch", 1.0),
        ]);
        cfg.admission = AdmissionControl::bounded(16);
        let a = simulate(&fleet, &cfg);
        assert!(a.shed > 0, "the scenario must overload the fleet");
        assert!(
            !a.alert_events.is_empty(),
            "sustained SLO misses must fire an alert"
        );
        assert!(a.classes[0].alerts_fired > 0);
        assert!(a.alert_events[0].fire);
        assert_eq!(
            a.classes[1].alerts_fired, 0,
            "best-effort classes never alert"
        );
        let json = a.to_json();
        assert!(json.contains("\"alerts\": {"));
        assert!(json.contains("\"rule\": \"fast\""));
        assert!(a.render_text().contains("FIRE"));
        // Bit-stable across repetitions, and the digest ignores the
        // alerting policy entirely.
        let b = simulate(&fleet, &cfg);
        assert_eq!(a.alert_events, b.alert_events);
        assert_eq!(a.to_json(), b.to_json());
        let mut relaxed = cfg.clone();
        relaxed.alert = AlertPolicy::with_target(0.5);
        let c = simulate(&fleet, &relaxed);
        assert_eq!(a.digest(), c.digest(), "policy must not move the digest");
        assert_ne!(a.alert_events, c.alert_events);
    }

    #[test]
    fn alert_state_survives_interrupt_and_resume_byte_exactly() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(60_000.0, 800, 42, 0);
        cfg.workload = cfg.workload.with_classes(vec![
            ClassSpec::with_slo("interactive", 3.0, 5.0),
            ClassSpec::best_effort("batch", 1.0),
        ]);
        cfg.admission = AdmissionControl::bounded(16);
        let baseline = simulate(&fleet, &cfg);
        assert!(!baseline.alert_events.is_empty());
        let mut snaps: Vec<SimSnapshot> = Vec::new();
        let out = simulate_checkpointed(&fleet, &cfg, 0.002, |s| {
            snaps.push(s.clone());
            true
        });
        let ServeOutcome::Completed(full) = out else {
            panic!("run must complete");
        };
        assert_eq!(*full, baseline, "checkpointing must not perturb alerts");
        assert!(snaps.len() >= 2);
        assert!(
            snaps.iter().any(|s| !s.totals.alerts.events.is_empty()),
            "some boundary must land after the first alert"
        );
        for snap in &snaps {
            let text = snap.to_text();
            assert!(text.contains("\nalerts "), "alert section present");
            let restored = SimSnapshot::parse(&text).unwrap();
            assert_eq!(&restored, snap, "alert state round-trips the wire");
            let out = resume_checkpointed(&fleet, &cfg, &restored, 0.0, |_| true).unwrap();
            let ServeOutcome::Completed(resumed) = out else {
                panic!("resume must complete");
            };
            assert_eq!(resumed.alert_events, baseline.alert_events);
            assert_eq!(resumed.to_json(), baseline.to_json());
        }
    }

    #[test]
    fn classless_snapshots_keep_the_prealerting_wire_format() {
        let fleet = small_fleet();
        let cfg = ServeConfig::poisson(3000.0, 200, 42, 0);
        let mut snaps = Vec::new();
        simulate_checkpointed(&fleet, &cfg, 0.01, |s| {
            snaps.push(s.to_text());
            true
        });
        assert!(!snaps.is_empty());
        for text in &snaps {
            assert!(
                !text.contains("\nalerts "),
                "classless snapshots must not grow an alert section"
            );
            SimSnapshot::parse(text).unwrap();
        }
    }

    #[test]
    fn checkpoint_resume_reports_are_byte_identical() {
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(3000.0, 400, 42, 0);
        cfg.faults = FaultScenario::none()
            .with(0.02, FaultKind::ChipOffline { chip: 1 })
            .with(0.05, FaultKind::ChipOnline { chip: 1 });
        let baseline = simulate(&fleet, &cfg);
        let every = 0.01;
        let mut snaps: Vec<SimSnapshot> = Vec::new();
        let out = simulate_checkpointed(&fleet, &cfg, every, |s| {
            snaps.push(s.clone());
            true
        });
        let ServeOutcome::Completed(full) = out else {
            panic!("run must complete");
        };
        assert_eq!(*full, baseline, "checkpointing must not perturb the run");
        assert!(snaps.len() >= 3, "expected several boundaries");
        for snap in &snaps {
            // Through the wire format, then to completion without further
            // checkpoints: byte-identical report, digest, and JSON.
            let restored = SimSnapshot::parse(&snap.to_text()).unwrap();
            assert_eq!(&restored, snap);
            let out = resume_checkpointed(&fleet, &cfg, &restored, 0.0, |_| true).unwrap();
            let ServeOutcome::Completed(resumed) = out else {
                panic!("resume must complete");
            };
            assert_eq!(*resumed, baseline);
            assert_eq!(resumed.digest(), baseline.digest());
            assert_eq!(resumed.to_json(), baseline.to_json());
        }
        // Resuming on the original cadence replays the remaining
        // boundaries exactly.
        let mut tail: Vec<SimSnapshot> = Vec::new();
        let out = resume_checkpointed(&fleet, &cfg, &snaps[0], every, |s| {
            tail.push(s.clone());
            true
        })
        .unwrap();
        assert!(matches!(out, ServeOutcome::Completed(_)));
        assert_eq!(tail, snaps[1..]);
    }

    #[test]
    fn halting_returns_the_boundary_and_resume_finishes_the_run() {
        let fleet = small_fleet();
        let cfg = ServeConfig::poisson(3000.0, 300, 7, 0);
        let baseline = simulate(&fleet, &cfg);
        let mut last = None;
        let out = simulate_checkpointed(&fleet, &cfg, 0.02, |s| {
            last = Some(s.clone());
            s.checkpoints() < 2
        });
        let ServeOutcome::Halted { checkpoints, at_s } = out else {
            panic!("expected a halt");
        };
        assert_eq!(checkpoints, 2);
        assert_eq!(at_s, 0.04);
        let snap = last.unwrap();
        assert_eq!(snap.checkpoints(), 2);
        assert!(snap.offered() > 0 && snap.offered() < 300);
        let out = resume_checkpointed(&fleet, &cfg, &snap, 0.02, |_| true).unwrap();
        let ServeOutcome::Completed(resumed) = out else {
            panic!("resume must complete");
        };
        assert_eq!(*resumed, baseline);
    }

    #[test]
    fn resume_rejects_mismatched_configurations() {
        let fleet = small_fleet();
        let cfg = ServeConfig::poisson(3000.0, 300, 42, 0);
        let mut snap = None;
        let _ = simulate_checkpointed(&fleet, &cfg, 0.02, |s| {
            snap = Some(s.clone());
            false
        });
        let snap = snap.unwrap();
        let mut wrong_seed = cfg.clone();
        wrong_seed.seed = 43;
        assert!(resume_checkpointed(&fleet, &wrong_seed, &snap, 0.0, |_| true).is_err());
        let mut wrong_requests = cfg.clone();
        wrong_requests.requests = 400;
        assert!(resume_checkpointed(&fleet, &wrong_requests, &snap, 0.0, |_| true).is_err());
        let mut wrong_policy = cfg.clone();
        wrong_policy.policy = BatchPolicy::SizeN { size: 4 };
        let err = resume_checkpointed(&fleet, &wrong_policy, &snap, 0.0, |_| true).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        // An off-grid interval is refused; the original cadence works.
        assert!(resume_checkpointed(&fleet, &cfg, &snap, 0.03, |_| true).is_err());
        assert!(resume_checkpointed(&fleet, &cfg, &snap, 0.02, |_| true).is_ok());
    }

    #[test]
    fn resume_covers_classes_autoscale_and_correlated_faults() {
        use crate::fault::FaultSpec;
        let fleet = small_fleet();
        let mut cfg = ServeConfig::poisson(6000.0, 500, 11, 0);
        cfg.workload = cfg.workload.with_classes(vec![
            ClassSpec::with_slo("interactive", 3.0, 5.0),
            ClassSpec::best_effort("batch", 1.0),
        ]);
        cfg.admission = AdmissionControl::bounded(64);
        cfg.autoscale = AutoscalePolicy::Elastic {
            up_depth: 4,
            warmup_s: 200e-6,
            min_chips: 1,
        };
        cfg.faults = FaultSpec::parse("thermal:0-1@0.01-0.03:2,fail:0@0.02,crews:1:0.02:9")
            .unwrap()
            .compile(fleet.chips.len());
        let baseline = simulate(&fleet, &cfg);
        let mut snaps: Vec<SimSnapshot> = Vec::new();
        let out = simulate_checkpointed(&fleet, &cfg, 0.005, |s| {
            snaps.push(s.clone());
            true
        });
        let ServeOutcome::Completed(full) = out else {
            panic!("run must complete");
        };
        assert_eq!(*full, baseline);
        assert!(!snaps.is_empty());
        for snap in &snaps {
            let restored = SimSnapshot::parse(&snap.to_text()).unwrap();
            let out = resume_checkpointed(&fleet, &cfg, &restored, 0.0, |_| true).unwrap();
            let ServeOutcome::Completed(resumed) = out else {
                panic!("resume must complete");
            };
            assert_eq!(*resumed, baseline);
            assert_eq!(resumed.to_json(), baseline.to_json());
        }
    }

    #[test]
    fn event_queue_stays_shallow_with_streamed_arrivals() {
        // The historical engine held every arrival in the heap, so peak
        // depth was O(requests). Streamed arrivals keep it at
        // O(fleet + faults + pending timers).
        let fleet = small_fleet();
        let report = simulate(&fleet, &ServeConfig::poisson(3000.0, 2000, 42, 0));
        assert_eq!(report.offered, 2000);
        assert!(
            report.peak_event_queue < 32,
            "peak event queue {} should not scale with requests",
            report.peak_event_queue
        );
        assert!(report.sketch_buckets > 0);
    }
}

/// Pins the in-place batch take to the two-deque partition it replaced.
#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// The historical take: pop the same-network prefix, then, if the
    /// rest still holds the head's network, partition the whole queue
    /// into the batch and a fresh deque of everything else.
    fn two_deque_take(queue: &mut VecDeque<Request>, max: usize) -> Vec<Request> {
        let network = queue.front().expect("head exists").network;
        let mut batch = Vec::new();
        while batch.len() < max && queue.front().is_some_and(|r| r.network == network) {
            batch.push(queue.pop_front().expect("front exists"));
        }
        if batch.len() < max && queue.iter().any(|r| r.network == network) {
            let mut rest = VecDeque::with_capacity(queue.len());
            while let Some(r) = queue.pop_front() {
                if r.network == network && batch.len() < max {
                    batch.push(r);
                } else {
                    rest.push_back(r);
                }
            }
            *queue = rest;
        }
        batch
    }

    fn request(id: u64, network: usize) -> Request {
        Request {
            id,
            network,
            arrival_s: id as f64 * 1e-3,
            class: (id % 2) as usize,
        }
    }

    proptest! {
        /// Taking batch after batch until the queue drains, the in-place
        /// take returns the reference's batch and leaves the reference's
        /// queue order every time — whatever the interleaving, the batch
        /// bound, the deque's wrap-around and the buffer's old contents.
        #[test]
        fn in_place_take_matches_two_deque_partition(
            networks in prop::collection::vec(
                prop_oneof![3 => 0usize..2, 1 => 0usize..5],
                1..80,
            ),
            max in prop_oneof![Just(1usize), Just(usize::MAX), 1usize..12],
            rotate in 0usize..16,
            stale in 0usize..4,
        ) {
            // Pushing and popping `rotate` placeholders first moves the
            // deque's head off slot 0, so the queue wraps its buffer.
            let mut queue = VecDeque::with_capacity(networks.len());
            for _ in 0..rotate {
                queue.push_back(request(u64::MAX, 0));
            }
            queue.drain(..rotate);
            for (id, &network) in networks.iter().enumerate() {
                queue.push_back(request(id as u64, network));
            }
            let mut reference = queue.clone();
            let mut batch: Vec<Request> = (0..stale).map(|i| request(1000 + i as u64, 9)).collect();
            while !queue.is_empty() {
                take_batch(&mut queue, max, &mut batch);
                let want = two_deque_take(&mut reference, max);
                prop_assert_eq!(&batch, &want);
                prop_assert!(queue.iter().eq(reference.iter()));
            }
            prop_assert!(reference.is_empty());
        }
    }
}
