//! Service metrics: the per-run report, its text/CSV/JSON renderings,
//! and the order-sensitive digest used by the determinism checks.
//!
//! Conventions mirror `albireo-bench`'s `BENCH_parallel.json`: the JSON
//! renders through the workspace writer [`albireo_obs::json`] (floats
//! as `{:.6}`) against a versioned schema string
//! (`albireo.bench.serving/v4`), and the digest folds values with
//! `digest.rotate_left(7) ^ bits` (order-sensitive, so it also certifies
//! *dispatch order*, not just the multiset of results). The full field
//! list is documented in DESIGN.md §8 and §11.
//!
//! ## Streaming accumulation
//!
//! The engine no longer hands this module a `Vec` of every record:
//! million-request runs accumulate a `RunTotals` — latency quantile
//! sketch (`albireo_obs::QuantileSketch`, O(1) memory), running sums,
//! and the **record digest fold**. The digest definition is unchanged
//! from the materialized era; it is computed incrementally using the
//! rotate-distributes-over-xor identity: folding `k` values onto seed
//! `d₀` equals `rotl(d₀, 7k mod 64) ^ F` where `F` is the same fold
//! started from zero. Reports therefore stay byte-identical to the
//! record-materializing implementation while holding O(1) state.

use crate::alerts::{AlertBook, AlertEvent, AlertPolicy};
use crate::fleet::FleetConfig;
use crate::sim::ServeConfig;
use albireo_obs::json::{self, num, Doc, Obj};
use albireo_obs::QuantileSketch;

/// One served request's lifecycle, in dispatch order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Request id (arrival order within the workload).
    pub id: u64,
    /// Network index into the fleet's model table.
    pub network: usize,
    /// Fleet chip that served it.
    pub chip: usize,
    /// Arrival on the virtual clock, s.
    pub arrival_s: f64,
    /// Batch dispatch instant, s.
    pub start_s: f64,
    /// Completion instant, s.
    pub finish_s: f64,
}

/// Per-chip serving totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipReport {
    /// Chip name from the fleet spec.
    pub name: String,
    /// Requests completed on this chip.
    pub served: u64,
    /// Micro-batches dispatched to this chip.
    pub batches: u64,
    /// Total busy time, s.
    pub busy_s: f64,
    /// Total energy, J.
    pub energy_j: f64,
    /// Whether the chip could still accept work when the run ended.
    pub online_at_end: bool,
    /// PLCGs retired by the fault scenario.
    pub plcgs_down: usize,
    /// Seconds the chip was provisioned (busy, idle, or warming). Zero
    /// when the run's [`AutoscalePolicy`](crate::AutoscalePolicy) is
    /// `None` — the legacy engine has no provisioning notion.
    pub provisioned_s: f64,
    /// Idle energy charged at the accelerator's
    /// [`idle_power_w`](albireo_core::accel::Accelerator::idle_power_w)
    /// over `provisioned_s − busy_s` — already included in `energy_j`.
    /// Zero under `AutoscalePolicy::None`.
    pub idle_energy_j: f64,
    /// Elastic spin-ups of this chip.
    pub spin_ups: u64,
}

impl ChipReport {
    /// Fraction of the run this chip spent serving.
    pub fn utilization(&self, makespan_s: f64) -> f64 {
        if makespan_s > 0.0 {
            self.busy_s / makespan_s
        } else {
            0.0
        }
    }
}

/// Per-class accumulator the engine fills while serving (one per entry
/// in the workload's class table).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClassTotals {
    pub name: String,
    pub slo_ms: Option<f64>,
    pub completed: u64,
    pub shed: u64,
    /// Completed requests whose end-to-end latency met the SLO.
    pub slo_hits: u64,
    pub latency_sum_ms: f64,
    pub latency_ms: QuantileSketch,
}

impl ClassTotals {
    pub(crate) fn new(name: &str, slo_ms: Option<f64>) -> ClassTotals {
        ClassTotals {
            name: name.to_string(),
            slo_ms,
            completed: 0,
            shed: 0,
            slo_hits: 0,
            latency_sum_ms: 0.0,
            latency_ms: QuantileSketch::new(),
        }
    }
}

/// Everything a finished run accumulated in streaming fashion — the
/// engine→report handoff. O(1) in the number of requests except for the
/// explicitly capped `records` sample.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RunTotals {
    /// Arrivals actually streamed (equals the configured request count
    /// for generated processes; a short trace offers fewer).
    pub offered: u64,
    pub shed: u64,
    /// Record digest folded from zero, in dispatch order.
    pub rec_fold: u64,
    /// Records folded (= completed).
    pub rec_count: u64,
    /// End-to-end latency sketch, ms.
    pub latency_ms: QuantileSketch,
    pub latency_sum_ms: f64,
    pub wait_sum_ms: f64,
    pub max_finish_s: f64,
    pub last_arrival_s: f64,
    pub max_queue_depth: usize,
    /// High-water mark of the DES event queue.
    pub peak_event_queue: usize,
    /// First `record_cap` records, in dispatch order.
    pub records: Vec<RequestRecord>,
    /// Per-class accumulators (empty when no classes configured).
    pub classes: Vec<ClassTotals>,
    /// Burn-rate alerting ledger (disabled unless a class has an SLO).
    pub alerts: AlertBook,
}

/// Per-tenant-class service metrics, reported alongside the run totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Class label from the workload's [`crate::workload::ClassSpec`].
    pub name: String,
    /// Latency SLO target, ms (`None` = best-effort).
    pub slo_ms: Option<f64>,
    /// Requests of this class completed.
    pub completed: u64,
    /// Requests of this class shed.
    pub shed: u64,
    /// Median end-to-end latency, ms (sketch estimate).
    pub p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, ms.
    pub p999_ms: f64,
    /// Mean latency, ms.
    pub mean_latency_ms: f64,
    /// Fraction of *offered* requests (completed + shed) that finished
    /// within the SLO — shed requests count as misses, so overload shows
    /// up here even when completed latencies look healthy. `None` when
    /// the class is best-effort; vacuously 1.0 when nothing was offered.
    pub slo_attainment: Option<f64>,
    /// Burn-rate alerts fired for this class over the run.
    pub alerts_fired: u64,
    /// Whether a burn-rate alert was still firing when the run ended.
    pub alert_active: bool,
}

fn fold(digest: u64, bits: u64) -> u64 {
    digest.rotate_left(7) ^ bits
}

impl RunTotals {
    pub(crate) fn new(classes: Vec<ClassTotals>) -> RunTotals {
        RunTotals {
            offered: 0,
            shed: 0,
            rec_fold: 0,
            rec_count: 0,
            latency_ms: QuantileSketch::new(),
            latency_sum_ms: 0.0,
            wait_sum_ms: 0.0,
            max_finish_s: 0.0,
            last_arrival_s: 0.0,
            max_queue_depth: 0,
            peak_event_queue: 0,
            records: Vec::new(),
            classes,
            alerts: AlertBook::disabled(),
        }
    }

    /// [`RunTotals::new`] with burn-rate alerting armed for every class
    /// that carries an SLO (a no-op book otherwise).
    pub(crate) fn with_alerts(classes: Vec<ClassTotals>, policy: AlertPolicy) -> RunTotals {
        let slos: Vec<Option<f64>> = classes.iter().map(|c| c.slo_ms).collect();
        let mut t = RunTotals::new(classes);
        t.alerts = AlertBook::for_classes(policy, &slos);
        t
    }
}

/// The service report of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Fleet label (e.g. `albireo_9+albireo_27`).
    pub fleet_label: String,
    /// Batching-policy label.
    pub policy_label: String,
    /// Arrival-process label.
    pub arrival_label: String,
    /// Mean offered rate, requests/s.
    pub offered_rate_rps: f64,
    /// Queue capacity (`usize::MAX` = unbounded).
    pub queue_capacity: usize,
    /// Master seed.
    pub seed: u64,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed (admission control or stranded at end of run).
    pub shed: u64,
    /// `shed / offered`.
    pub shed_rate: f64,
    /// Median service latency (arrival → completion), ms (sketch
    /// estimate, within `QuantileSketch::RELATIVE_ERROR_BOUND`).
    pub p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, ms.
    pub p999_ms: f64,
    /// Mean latency, ms (exact).
    pub mean_latency_ms: f64,
    /// Mean queueing delay (arrival → dispatch), ms (exact).
    pub mean_wait_ms: f64,
    /// Completed requests per second of makespan.
    pub goodput_rps: f64,
    /// Virtual time from first arrival to last completion, s.
    pub makespan_s: f64,
    /// Total fleet energy, J.
    pub energy_total_j: f64,
    /// `energy_total / completed`, J.
    pub energy_per_request_j: f64,
    /// Mean requests per dispatched micro-batch.
    pub mean_batch_size: f64,
    /// Deepest the queue got.
    pub max_queue_depth: usize,
    /// High-water mark of the DES event queue — with streamed arrivals
    /// this stays O(fleet + in-flight), not O(requests).
    pub peak_event_queue: usize,
    /// Occupied latency-sketch buckets (bounded by
    /// `QuantileSketch::MAX_BUCKETS` regardless of run length).
    pub sketch_buckets: usize,
    /// Per-tenant-class metrics, in class-table order (empty when the
    /// workload configures no classes).
    pub classes: Vec<ClassReport>,
    /// Per-chip totals, in fleet order.
    pub per_chip: Vec<ChipReport>,
    /// The first `record_cap` per-request records, in dispatch order —
    /// a bounded sample; the digest always covers *every* record.
    pub records: Vec<RequestRecord>,
    /// Burn-rate alert policy description (see
    /// [`AlertPolicy::label`]).
    pub alert_policy: String,
    /// Fire/resolve transitions in virtual-time order (capped at the
    /// engine's event cap; `alert_events_dropped` counts the overflow).
    pub alert_events: Vec<AlertEvent>,
    /// Transitions beyond the event cap.
    pub alert_events_dropped: u64,
    /// The run digest, computed incrementally during the run (records
    /// are not required to recompute it). Alert state is deliberately
    /// outside the digest: alerting observes the run, never alters it.
    digest: u64,
}

impl ServiceReport {
    /// Builds the report from a finished run's streaming accumulators.
    pub(crate) fn from_run(
        cfg: &ServeConfig,
        fleet: &FleetConfig,
        per_chip: Vec<ChipReport>,
        totals: RunTotals,
    ) -> ServiceReport {
        let completed = totals.rec_count;
        let offered = totals.offered;
        let makespan_s = totals.max_finish_s.max(totals.last_arrival_s);
        let mean_latency_ms = if completed > 0 {
            totals.latency_sum_ms / completed as f64
        } else {
            0.0
        };
        let mean_wait_ms = if completed > 0 {
            totals.wait_sum_ms / completed as f64
        } else {
            0.0
        };
        let energy_total_j: f64 = per_chip.iter().map(|c| c.energy_j).sum();
        let batches: u64 = per_chip.iter().map(|c| c.batches).sum();

        // Digest: identical to folding (offered, completed, shed), every
        // record, then the chip totals, one value at a time. The record
        // section was folded from zero during the run; rotation
        // distributes over xor, so splicing it onto the prefix is exact.
        let mut d = 0xA1B1_9E0Au64;
        d = fold(d, offered);
        d = fold(d, completed);
        d = fold(d, totals.shed);
        d = d.rotate_left(((totals.rec_count.wrapping_mul(6).wrapping_mul(7)) % 64) as u32)
            ^ totals.rec_fold;
        for c in &per_chip {
            d = fold(d, c.served);
            d = fold(d, c.batches);
            d = fold(d, c.busy_s.to_bits());
            d = fold(d, c.energy_j.to_bits());
            d = fold(d, c.plcgs_down as u64);
            d = fold(d, c.online_at_end as u64);
        }

        let classes = totals
            .classes
            .iter()
            .enumerate()
            .map(|(ci, ct)| ClassReport {
                name: ct.name.clone(),
                slo_ms: ct.slo_ms,
                completed: ct.completed,
                shed: ct.shed,
                p50_ms: ct.latency_ms.quantile(0.50),
                p95_ms: ct.latency_ms.quantile(0.95),
                p99_ms: ct.latency_ms.quantile(0.99),
                p999_ms: ct.latency_ms.quantile(0.999),
                mean_latency_ms: if ct.completed > 0 {
                    ct.latency_sum_ms / ct.completed as f64
                } else {
                    0.0
                },
                slo_attainment: ct.slo_ms.map(|_| {
                    let offered_class = ct.completed + ct.shed;
                    if offered_class > 0 {
                        ct.slo_hits as f64 / offered_class as f64
                    } else {
                        1.0
                    }
                }),
                alerts_fired: totals.alerts.fired(ci),
                alert_active: totals.alerts.active(ci),
            })
            .collect();

        ServiceReport {
            fleet_label: fleet.label(),
            policy_label: cfg.policy.label(),
            arrival_label: cfg.workload.process.label().to_string(),
            offered_rate_rps: cfg.workload.process.mean_rate_rps(),
            queue_capacity: cfg.admission.queue_capacity,
            seed: cfg.seed,
            offered,
            completed,
            shed: totals.shed,
            shed_rate: if offered > 0 {
                totals.shed as f64 / offered as f64
            } else {
                0.0
            },
            p50_ms: totals.latency_ms.quantile(0.50),
            p95_ms: totals.latency_ms.quantile(0.95),
            p99_ms: totals.latency_ms.quantile(0.99),
            p999_ms: totals.latency_ms.quantile(0.999),
            mean_latency_ms,
            mean_wait_ms,
            goodput_rps: if makespan_s > 0.0 {
                completed as f64 / makespan_s
            } else {
                0.0
            },
            makespan_s,
            energy_total_j,
            energy_per_request_j: if completed > 0 {
                energy_total_j / completed as f64
            } else {
                0.0
            },
            mean_batch_size: if batches > 0 {
                completed as f64 / batches as f64
            } else {
                0.0
            },
            max_queue_depth: totals.max_queue_depth,
            peak_event_queue: totals.peak_event_queue,
            sketch_buckets: totals.latency_ms.occupied_buckets(),
            classes,
            per_chip,
            records: totals.records,
            alert_policy: totals.alerts.policy.label(),
            alert_events: totals.alerts.events,
            alert_events_dropped: totals.alerts.dropped,
            digest: d,
        }
    }

    /// Order-sensitive digest over the full run outcome: every request
    /// record in dispatch order, the shed count, and the per-chip totals.
    /// Two runs with the same digest served the same requests on the same
    /// chips at the same virtual instants. Computed incrementally during
    /// the run, so it covers all records even when `records` is capped.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The digest as a fixed-width hex string (what reports print).
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    fn capacity_label(&self) -> String {
        if self.queue_capacity == usize::MAX {
            "unbounded".to_string()
        } else {
            self.queue_capacity.to_string()
        }
    }

    /// Human-readable multi-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serving report  fleet={}  policy={}  arrival={}  seed={}\n",
            self.fleet_label, self.policy_label, self.arrival_label, self.seed
        ));
        out.push_str(&format!(
            "  offered {} req at {:.1} rps  queue_cap {}\n",
            self.offered,
            self.offered_rate_rps,
            self.capacity_label()
        ));
        out.push_str(&format!(
            "  completed {}  shed {} ({:.2}%)  goodput {:.1} rps  makespan {:.6} s\n",
            self.completed,
            self.shed,
            self.shed_rate * 100.0,
            self.goodput_rps,
            self.makespan_s
        ));
        out.push_str(&format!(
            "  latency ms  p50 {:.6}  p95 {:.6}  p99 {:.6}  p99.9 {:.6}  mean {:.6}  wait {:.6}\n",
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.p999_ms,
            self.mean_latency_ms,
            self.mean_wait_ms
        ));
        out.push_str(&format!(
            "  energy {:.6} J total  {:.6} mJ/request  mean batch {:.3}  max queue {}\n",
            self.energy_total_j,
            self.energy_per_request_j * 1e3,
            self.mean_batch_size,
            self.max_queue_depth
        ));
        out.push_str(&format!(
            "  memory  peak events {}  sketch buckets {}\n",
            self.peak_event_queue, self.sketch_buckets
        ));
        for c in &self.classes {
            let slo = match (c.slo_ms, c.slo_attainment) {
                (Some(slo_ms), Some(att)) => {
                    format!("  slo {slo_ms:.3} ms attained {:.2}%", att * 100.0)
                }
                _ => "  best-effort".to_string(),
            };
            out.push_str(&format!(
                "  class {:<12} completed {:>8}  shed {:>6}  p50 {:.6}  p99 {:.6}{}{}\n",
                c.name,
                c.completed,
                c.shed,
                c.p50_ms,
                c.p99_ms,
                slo,
                match (c.alerts_fired, c.alert_active) {
                    (0, _) => String::new(),
                    (n, true) => format!("  {n} alert(s), FIRING"),
                    (n, false) => format!("  {n} alert(s), resolved"),
                }
            ));
        }
        if !self.alert_events.is_empty() || self.alert_events_dropped > 0 {
            out.push_str(&format!(
                "  alerts {} transition(s)  {} dropped  policy {}\n",
                self.alert_events.len(),
                self.alert_events_dropped,
                self.alert_policy
            ));
            const SHOWN: usize = 16;
            for e in self.alert_events.iter().take(SHOWN) {
                let class = self
                    .classes
                    .get(e.class)
                    .map(|c| c.name.as_str())
                    .unwrap_or("?");
                out.push_str(&format!(
                    "    {} {:<8} {:<12} at {:.6} s  burn short {:.2} long {:.2}\n",
                    if e.fire { "FIRE   " } else { "resolve" },
                    e.rule.label(),
                    class,
                    e.at_s,
                    e.burn_short,
                    e.burn_long
                ));
            }
            if self.alert_events.len() > SHOWN {
                out.push_str(&format!(
                    "    ... {} more transition(s)\n",
                    self.alert_events.len() - SHOWN
                ));
            }
        }
        for c in &self.per_chip {
            out.push_str(&format!(
                "  chip {:<14} served {:>6}  batches {:>6}  util {:>6.2}%  energy {:.6} J  {}{}{}\n",
                c.name,
                c.served,
                c.batches,
                c.utilization(self.makespan_s) * 100.0,
                c.energy_j,
                if c.online_at_end { "online" } else { "OFFLINE" },
                if c.plcgs_down > 0 {
                    format!(" ({} PLCGs down)", c.plcgs_down)
                } else {
                    String::new()
                },
                if c.provisioned_s > 0.0 {
                    format!(
                        " (idle {:.6} J over {:.6} s, {} spin-up(s))",
                        c.idle_energy_j, c.provisioned_s, c.spin_ups
                    )
                } else {
                    String::new()
                }
            ));
        }
        out.push_str(&format!("  digest {}\n", self.digest_hex()));
        out
    }

    /// Header row for the serving-study CSV.
    pub fn csv_header() -> &'static str {
        "fleet,policy,arrival,rate_rps,queue_cap,seed,offered,completed,shed,shed_rate,\
         p50_ms,p95_ms,p99_ms,p999_ms,mean_latency_ms,mean_wait_ms,goodput_rps,\
         makespan_s,energy_total_j,energy_per_request_mj,mean_batch_size,digest"
    }

    /// One CSV row matching [`ServiceReport::csv_header`].
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.3},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.3},{:.6},{:.6},{:.6},{:.3},{}",
            self.fleet_label,
            self.policy_label,
            self.arrival_label,
            self.offered_rate_rps,
            self.capacity_label(),
            self.seed,
            self.offered,
            self.completed,
            self.shed,
            self.shed_rate,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.p999_ms,
            self.mean_latency_ms,
            self.mean_wait_ms,
            self.goodput_rps,
            self.makespan_s,
            self.energy_total_j,
            self.energy_per_request_j * 1e3,
            self.mean_batch_size,
            self.digest_hex()
        )
    }

    /// JSON digest of the run (schema `albireo.bench.serving/v4`,
    /// documented in DESIGN.md §8/§11/§15; v3 added the per-chip
    /// autoscaling fields, v4 the per-class burn-rate alert summary and
    /// the `alerts` transition log). Does not embed per-request records;
    /// the digest covers them.
    pub fn to_json(&self) -> String {
        self.json_doc(None).finish() + "\n"
    }

    /// [`to_json`](ServiceReport::to_json) with an `"obs"` member — the
    /// run's metrics snapshot under the `albireo.obs/v1` schema — ahead
    /// of the digest. The default rendering is unchanged; metrics
    /// appear only when a snapshot is supplied.
    pub fn to_json_with_metrics(&self, metrics: &albireo_obs::MetricsSnapshot) -> String {
        self.json_doc(Some(metrics)).finish() + "\n"
    }

    /// Several reports (one per replica) as one top-level JSON array of
    /// [`to_json`](ServiceReport::to_json) documents.
    pub fn to_json_array(reports: &[ServiceReport]) -> String {
        json::docs(reports.iter().map(|r| r.json_doc(None))) + "\n"
    }

    fn json_doc(&self, metrics: Option<&albireo_obs::MetricsSnapshot>) -> Doc {
        let classes = self.classes.iter().map(|c| {
            Obj::new()
                .field("name", &c.name)
                .field("slo_ms", c.slo_ms.map(num))
                .field("completed", c.completed)
                .field("shed", c.shed)
                .field("p50_ms", num(c.p50_ms))
                .field("p95_ms", num(c.p95_ms))
                .field("p99_ms", num(c.p99_ms))
                .field("p999_ms", num(c.p999_ms))
                .field("mean_latency_ms", num(c.mean_latency_ms))
                .field("slo_attainment", c.slo_attainment.map(num))
                .field("alerts_fired", c.alerts_fired)
                .field("alert_active", c.alert_active)
        });
        let chips = self.per_chip.iter().map(|c| {
            Obj::new()
                .field("name", &c.name)
                .field("served", c.served)
                .field("batches", c.batches)
                .field("utilization", num(c.utilization(self.makespan_s)))
                .field("energy_j", num(c.energy_j))
                .field("idle_energy_j", num(c.idle_energy_j))
                .field("provisioned_s", num(c.provisioned_s))
                .field("spin_ups", c.spin_ups)
                .field("online", c.online_at_end)
                .field("plcgs_down", c.plcgs_down)
        });
        let alert_events = self.alert_events.iter().map(|e| {
            let class = self.classes.get(e.class).map_or("?", |c| c.name.as_str());
            e.json_fields(Obj::new(), class)
        });
        let doc = Doc::new()
            .field("schema", "albireo.bench.serving/v4")
            .field("fleet", &self.fleet_label)
            .field("policy", &self.policy_label)
            .field("arrival", &self.arrival_label)
            .field("rate_rps", num(self.offered_rate_rps))
            .field("queue_capacity", self.capacity_label())
            .field("seed", self.seed)
            .field("offered", self.offered)
            .field("completed", self.completed)
            .field("shed", self.shed)
            .field("shed_rate", num(self.shed_rate))
            .doc("latency_ms", |d| {
                d.field("p50", num(self.p50_ms))
                    .field("p95", num(self.p95_ms))
                    .field("p99", num(self.p99_ms))
                    .field("p999", num(self.p999_ms))
                    .field("mean", num(self.mean_latency_ms))
                    .field("mean_wait", num(self.mean_wait_ms))
            })
            .field("goodput_rps", num(self.goodput_rps))
            .field("makespan_s", num(self.makespan_s))
            .field("energy_total_j", num(self.energy_total_j))
            .field(
                "energy_per_request_mj",
                num(self.energy_per_request_j * 1e3),
            )
            .field("mean_batch_size", num(self.mean_batch_size))
            .field("max_queue_depth", self.max_queue_depth)
            .field("peak_event_queue", self.peak_event_queue)
            .field("sketch_buckets", self.sketch_buckets)
            .rows("classes", classes)
            .rows("chips", chips)
            .doc("alerts", |d| {
                d.field("policy", &self.alert_policy)
                    .rows("events", alert_events)
                    .field("dropped", self.alert_events_dropped)
            });
        let doc = match metrics {
            Some(m) => doc.doc("obs", |d| m.json_members(d)),
            None => doc,
        };
        doc.field("digest", self.digest_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderings_carry_the_digest() {
        let fleet = FleetConfig::paper_pair();
        let cfg = ServeConfig::poisson(3000.0, 120, 9, 0);
        let report = crate::sim::simulate(&fleet, &cfg);
        let hex = report.digest_hex();
        assert_eq!(hex.len(), 16);
        assert!(report.render_text().contains(&hex));
        assert!(report.csv_row().ends_with(&hex));
        let json = report.to_json();
        assert!(json.contains("albireo.bench.serving/v4"));
        assert!(json.contains(&hex));
        assert_eq!(
            ServiceReport::csv_header().split(',').count(),
            report.csv_row().split(',').count()
        );
    }

    #[test]
    fn json_with_metrics_embeds_obs_snapshot() {
        let fleet = FleetConfig::paper_pair();
        let cfg = ServeConfig::poisson(3000.0, 120, 9, 0);
        let obs = albireo_obs::Obs::enabled();
        let report = crate::sim::simulate_observed(&fleet, &cfg, &obs);
        let json = report.to_json_with_metrics(&obs.snapshot());
        assert!(json.contains("\"obs\": {"));
        assert!(json.contains("albireo.obs/v1"));
        assert!(json.contains("serve.completed"));
        // Still balanced, still digest-terminated, base JSON unchanged.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains(&report.digest_hex()));
        assert!(!report.to_json().contains("\"obs\""));
    }

    #[test]
    fn json_is_stable_across_identical_runs() {
        let fleet = FleetConfig::paper_pair();
        let cfg = ServeConfig::poisson(3000.0, 120, 9, 0);
        let a = crate::sim::simulate(&fleet, &cfg).to_json();
        let b = crate::sim::simulate(&fleet, &cfg).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_completion_run_reports_clean_zeros() {
        // A run where everything sheds (or nothing arrives) must render
        // zeros, not NaN — the historical sort-based percentile path was
        // fine here, and the sketch path must stay fine.
        let fleet = FleetConfig::paper_pair();
        let cfg = ServeConfig::poisson(3000.0, 120, 9, 0);
        let totals = RunTotals::new(vec![ClassTotals::new("t", Some(5.0))]);
        let per_chip = vec![ChipReport {
            name: "c".to_string(),
            served: 0,
            batches: 0,
            busy_s: 0.0,
            energy_j: 0.0,
            online_at_end: true,
            plcgs_down: 0,
            provisioned_s: 0.0,
            idle_energy_j: 0.0,
            spin_ups: 0,
        }];
        let r = ServiceReport::from_run(&cfg, &fleet, per_chip, totals);
        for v in [
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.p999_ms,
            r.mean_latency_ms,
            r.mean_wait_ms,
            r.goodput_rps,
            r.energy_per_request_j,
            r.mean_batch_size,
            r.shed_rate,
        ] {
            assert_eq!(v, 0.0, "expected clean zero, got {v}");
        }
        assert_eq!(r.classes[0].slo_attainment, Some(1.0), "vacuous SLO");
        assert!(!r.to_json().contains("NaN"));
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        // One completed request: every percentile must equal its exact
        // latency (the sketch clamps estimates to [min, max]).
        let fleet = FleetConfig::paper_pair();
        let cfg = ServeConfig::poisson(3000.0, 1, 9, 0);
        let report = crate::sim::simulate(&fleet, &cfg);
        assert_eq!(report.completed, 1);
        assert_eq!(report.p50_ms, report.mean_latency_ms);
        assert_eq!(report.p50_ms, report.p95_ms);
        assert_eq!(report.p95_ms, report.p99_ms);
        assert_eq!(report.p99_ms, report.p999_ms);
        assert!(report.p50_ms > 0.0);
    }

    #[test]
    fn streamed_digest_matches_reference_fold() {
        // The incremental digest must equal folding the same values
        // sequentially through one accumulator (the materialized-era
        // definition).
        let fleet = FleetConfig::paper_pair();
        let cfg = ServeConfig::poisson(3000.0, 200, 9, 0);
        let report = crate::sim::simulate(&fleet, &cfg);
        assert_eq!(report.records.len() as u64, report.completed);
        let mut d = 0xA1B1_9E0Au64;
        d = fold(d, report.offered);
        d = fold(d, report.completed);
        d = fold(d, report.shed);
        for r in &report.records {
            d = fold(d, r.id);
            d = fold(d, r.network as u64);
            d = fold(d, r.chip as u64);
            d = fold(d, r.arrival_s.to_bits());
            d = fold(d, r.start_s.to_bits());
            d = fold(d, r.finish_s.to_bits());
        }
        for c in &report.per_chip {
            d = fold(d, c.served);
            d = fold(d, c.batches);
            d = fold(d, c.busy_s.to_bits());
            d = fold(d, c.energy_j.to_bits());
            d = fold(d, c.plcgs_down as u64);
            d = fold(d, c.online_at_end as u64);
        }
        assert_eq!(report.digest(), d);
    }
}
