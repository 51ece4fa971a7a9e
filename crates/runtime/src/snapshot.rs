//! Checkpoint snapshots of an in-flight serving run.
//!
//! A [`SimSnapshot`] captures *everything* the engine holds between two
//! event instants: the virtual clock boundary, the pending event queue
//! (in pop order), the bounded request queue, per-chip state, the
//! streaming accumulators (`RunTotals`, including the latency quantile
//! sketch and the incremental record-digest fold), and the arrival
//! lookahead. The one thing it does **not** store is the workload RNG —
//! the stream is a pure function of `(workload, requests, seed)`, so
//! resume re-seeds it and fast-forwards exactly `offered` draws, then
//! cross-checks the regenerated lookahead request against the stored
//! one bit for bit. A resumed run therefore produces a report
//! byte-identical to the uninterrupted run (same digest, same JSON).
//!
//! ## Wire format — `albireo.snapshot/v1`
//!
//! Line-oriented text, one record per line, `f64`s as 16-hex-digit
//! IEEE-754 bit patterns (exact round-trip, no shortest-float
//! ambiguity). The final line is `digest <16-hex>`: an FNV-1a hash of
//! every preceding byte, so torn writes and hand edits are rejected at
//! parse time. A `fingerprint` line hashes the fleet label and the
//! full `ServeConfig`; resume refuses a snapshot whose fingerprint does
//! not match the offered configuration. The format is documented in
//! DESIGN.md §13.

use crate::alerts::{
    AlertBook, AlertEvent, AlertPolicy, AlertRule, BurnRule, ClassAlertState, WindowCounts,
};
use crate::fault::FaultKind;
use crate::grammar::Lexer;
use crate::report::{ClassTotals, RequestRecord, RunTotals};
use crate::sim::{ChipState, EventKind};
use crate::workload::Request;
use albireo_obs::json::{num, Obj};
use albireo_obs::sketch::MAX_BUCKETS;
use albireo_obs::{fnv1a, QuantileSketch};
use std::fmt::Write as _;

/// Schema tag on the first line of every snapshot file.
pub const SNAPSHOT_SCHEMA: &str = "albireo.snapshot/v1";

/// A complete, serializable capture of an in-flight serving run at a
/// checkpoint boundary. Produce one with
/// [`crate::sim::simulate_checkpointed`]; turn it back into a running
/// simulation with [`crate::sim::resume_checkpointed`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// FNV-1a over the fleet label and the full `ServeConfig` debug
    /// rendering — resume refuses a mismatched configuration.
    pub(crate) fingerprint: u64,
    /// Configured request count (replay cross-check).
    pub(crate) requests: usize,
    /// Master seed (replay cross-check).
    pub(crate) seed: u64,
    /// The checkpoint boundary on the virtual clock, s. Every event
    /// strictly before this instant has been applied.
    pub(crate) at_s: f64,
    /// How many checkpoints (including this one) the run has emitted.
    pub(crate) checkpoints: u64,
    /// Event insertion counter (keeps the total order stable on resume).
    pub(crate) seq: u64,
    /// The arrival lookahead — the next stream request not yet merged.
    pub(crate) next_arrival: Option<Request>,
    /// Streaming accumulators, including the capped record sample.
    pub(crate) totals: RunTotals,
    /// The bounded dispatch queue, front to back.
    pub(crate) queue: Vec<Request>,
    /// Pending events as `(time_bits, class, seq, kind)`, in pop order.
    pub(crate) events: Vec<(u64, u8, u64, EventKind)>,
    /// Event-queue high-water mark at capture time.
    pub(crate) peak_event_queue: usize,
    /// Per-chip engine state, in fleet order.
    pub(crate) chips: Vec<ChipState>,
}

impl SimSnapshot {
    /// The checkpoint boundary on the virtual clock, s.
    pub fn at_s(&self) -> f64 {
        self.at_s
    }

    /// Checkpoints emitted so far, including this one.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Requests offered (streamed) before the boundary.
    pub fn offered(&self) -> u64 {
        self.totals.offered
    }

    /// Requests completed before the boundary.
    pub fn completed(&self) -> u64 {
        self.totals.rec_count
    }

    /// Requests shed before the boundary.
    pub fn shed(&self) -> u64 {
        self.totals.shed
    }

    /// Requests waiting in the dispatch queue at the boundary.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Events pending in the DES queue at the boundary.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Median end-to-end latency so far, ms (sketch estimate).
    pub fn p50_ms(&self) -> f64 {
        self.totals.latency_ms.quantile(0.50)
    }

    /// 99th-percentile latency so far, ms (sketch estimate).
    pub fn p99_ms(&self) -> f64 {
        self.totals.latency_ms.quantile(0.99)
    }

    /// The configuration fingerprint this snapshot was captured under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Burn-rate alert transitions recorded up to this boundary, in
    /// fire order (empty when the workload has no SLO classes).
    pub fn alert_events(&self) -> &[AlertEvent] {
        &self.totals.alerts.events
    }

    /// `albireo.serve.alert/v1` JSON lines (no trailing newlines) for
    /// every alert transition with index `>= from`, each tagged with
    /// this boundary's checkpoint number. Streaming callers pass the
    /// count they have already written, so a transition is emitted
    /// exactly once even though the snapshot carries the full log.
    pub fn alert_json_lines(&self, from: usize) -> Vec<String> {
        let name = |class: usize| -> &str {
            self.totals
                .classes
                .get(class)
                .map_or("?", |ct| ct.name.as_str())
        };
        self.totals
            .alerts
            .events
            .iter()
            .skip(from)
            .map(|e| {
                let head = Obj::new()
                    .field("schema", "albireo.serve.alert/v1")
                    .field("checkpoint", self.checkpoints);
                e.json_fields(head, name(e.class)).finish()
            })
            .collect()
    }

    /// Derives an obs [`albireo_obs::MetricsSnapshot`] from the
    /// snapshot's streaming accumulators — the OpenMetrics view of the
    /// run at this checkpoint boundary. Counters are cumulative since
    /// the start of the run; gauges are point-in-time.
    pub fn metrics_snapshot(&self) -> albireo_obs::MetricsSnapshot {
        let r = albireo_obs::Registry::new();
        r.counter("serve.offered").add(self.totals.offered);
        r.counter("serve.completed").add(self.totals.rec_count);
        r.counter("serve.shed").add(self.totals.shed);
        r.gauge("serve.at_s").set(self.at_s);
        r.gauge("serve.queue_depth").set(self.queue.len() as f64);
        r.gauge("serve.pending_events")
            .set(self.events.len() as f64);
        r.sketch("serve.latency_ms")
            .merge_from(&self.totals.latency_ms);
        for (ci, ct) in self.totals.classes.iter().enumerate() {
            if ct.slo_ms.is_none() {
                continue;
            }
            r.counter(&format!("serve.class.{}.alerts_fired", ct.name))
                .add(self.totals.alerts.fired(ci));
            r.gauge(&format!("serve.class.{}.alert_active", ct.name))
                .set(if self.totals.alerts.active(ci) {
                    1.0
                } else {
                    0.0
                });
        }
        r.snapshot()
    }

    /// One `albireo.serve.progress/v1` JSON line summarizing the run at
    /// this boundary — the incremental-report record streamed to
    /// `--report-jsonl` (no trailing newline).
    pub fn progress_json(&self) -> String {
        Obj::new()
            .field("schema", "albireo.serve.progress/v1")
            .field("checkpoint", self.checkpoints)
            .field("at_s", num(self.at_s))
            .field("offered", self.totals.offered)
            .field("completed", self.totals.rec_count)
            .field("shed", self.totals.shed)
            .field("queued", self.queue.len())
            .field("events", self.events.len())
            .field("p50_ms", num(self.p50_ms()))
            .field("p99_ms", num(self.p99_ms()))
            .finish()
    }

    /// Serializes the snapshot to its `albireo.snapshot/v1` text form,
    /// ending with the self-digest line.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(SNAPSHOT_SCHEMA);
        out.push('\n');
        let _ = writeln!(out, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(out, "requests {}", self.requests);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "at {:016x}", self.at_s.to_bits());
        let _ = writeln!(out, "checkpoints {}", self.checkpoints);
        let _ = writeln!(out, "seq {}", self.seq);
        let _ = writeln!(out, "peak_events {}", self.peak_event_queue);
        match &self.next_arrival {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "next_arrival {} {:016x} {} {}",
                    r.id,
                    r.arrival_s.to_bits(),
                    r.network,
                    r.class
                );
            }
            None => out.push_str("next_arrival none\n"),
        }
        let t = &self.totals;
        let _ = writeln!(
            out,
            "totals {} {} {:016x} {} {:016x} {:016x} {:016x} {:016x} {}",
            t.offered,
            t.shed,
            t.rec_fold,
            t.rec_count,
            t.latency_sum_ms.to_bits(),
            t.wait_sum_ms.to_bits(),
            t.max_finish_s.to_bits(),
            t.last_arrival_s.to_bits(),
            t.max_queue_depth,
        );
        write_sketch(&mut out, &t.latency_ms);
        let _ = writeln!(out, "classes {}", t.classes.len());
        for c in &t.classes {
            let slo = match c.slo_ms {
                Some(s) => format!("{:016x}", s.to_bits()),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "class {} {} {} {:016x} {} {}",
                c.completed,
                c.shed,
                c.slo_hits,
                c.latency_sum_ms.to_bits(),
                slo,
                c.name,
            );
            write_sketch(&mut out, &c.latency_ms);
        }
        let _ = writeln!(out, "records {}", t.records.len());
        for r in &t.records {
            let _ = writeln!(
                out,
                "record {} {} {} {:016x} {:016x} {:016x}",
                r.id,
                r.network,
                r.chip,
                r.arrival_s.to_bits(),
                r.start_s.to_bits(),
                r.finish_s.to_bits(),
            );
        }
        let _ = writeln!(out, "queued {}", self.queue.len());
        for r in &self.queue {
            let _ = writeln!(
                out,
                "req {} {:016x} {} {}",
                r.id,
                r.arrival_s.to_bits(),
                r.network,
                r.class
            );
        }
        let _ = writeln!(out, "events {}", self.events.len());
        for (time_bits, class, seq, kind) in &self.events {
            let _ = write!(out, "event {time_bits:016x} {class} {seq} ");
            match kind {
                EventKind::Fault(FaultKind::ChipOffline { chip }) => {
                    let _ = write!(out, "fault chip_offline {chip}");
                }
                EventKind::Fault(FaultKind::ChipOnline { chip }) => {
                    let _ = write!(out, "fault chip_online {chip}");
                }
                EventKind::Fault(FaultKind::PlcgOffline { chip, count }) => {
                    let _ = write!(out, "fault plcg_offline {chip} {count}");
                }
                EventKind::Fault(FaultKind::PlcgRestore { chip, count }) => {
                    let _ = write!(out, "fault plcg_restore {chip} {count}");
                }
                EventKind::Completion { chip } => {
                    let _ = write!(out, "completion {chip}");
                }
                EventKind::WarmedUp { chip } => {
                    let _ = write!(out, "warmed {chip}");
                }
                EventKind::Timer => out.push_str("timer"),
            }
            out.push('\n');
        }
        let _ = writeln!(out, "chips {}", self.chips.len());
        for c in &self.chips {
            let _ = writeln!(
                out,
                "chip {} {} {} {:016x} {:016x} {} {} {} {} {:016x} {:016x} {}",
                c.online as u8,
                c.plcgs_down,
                c.busy as u8,
                c.busy_s.to_bits(),
                c.energy_j.to_bits(),
                c.served,
                c.batches,
                c.parked as u8,
                c.warming as u8,
                c.provisioned_s.to_bits(),
                c.provisioned_at_s.to_bits(),
                c.spin_ups,
            );
        }
        // Burn-rate alert state — present only when the run tracks an
        // SLO class, so classless snapshots stay byte-identical to the
        // pre-alerting format (still `albireo.snapshot/v1`; parsers
        // treat the section as optional).
        if self.totals.alerts.is_active() {
            let b = &self.totals.alerts;
            let p = &b.policy;
            let active: Vec<(usize, &ClassAlertState)> = b
                .states
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|st| (i, st)))
                .collect();
            let _ = writeln!(
                out,
                "alerts {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {} {} {}",
                p.target.to_bits(),
                p.fast.short_s.to_bits(),
                p.fast.long_s.to_bits(),
                p.fast.factor.to_bits(),
                p.slow.short_s.to_bits(),
                p.slow.long_s.to_bits(),
                p.slow.factor.to_bits(),
                active.len(),
                b.events.len(),
                b.dropped,
            );
            for (class, st) in active {
                let _ = writeln!(
                    out,
                    "astate {} {} {}",
                    class, st.fast_firing as u8, st.slow_firing as u8
                );
                for w in [&st.fast_short, &st.fast_long, &st.slow_short, &st.slow_long] {
                    write_window(&mut out, w);
                }
            }
            for e in &b.events {
                let _ = writeln!(
                    out,
                    "aevent {} {} {} {:016x} {:016x} {:016x}",
                    e.class,
                    e.rule.label(),
                    e.fire as u8,
                    e.at_s.to_bits(),
                    e.burn_short.to_bits(),
                    e.burn_long.to_bits(),
                );
            }
        }
        let digest = fnv1a(out.as_bytes());
        let _ = writeln!(out, "digest {digest:016x}");
        out
    }

    /// Parses an `albireo.snapshot/v1` text snapshot, verifying the
    /// trailing self-digest before interpreting a single field.
    pub fn parse(text: &str) -> Result<SimSnapshot, String> {
        // Every writer ends the digest line with a newline, so a missing
        // one means a torn write.
        let stripped = text
            .strip_suffix('\n')
            .ok_or("snapshot does not end with a newline (truncated write)")?;
        let (head, last) = stripped
            .rsplit_once('\n')
            .ok_or_else(|| "snapshot too short".to_string())?;
        let digest_hex = last
            .strip_prefix("digest ")
            // Exactly the 16 lowercase digits the writer emits, so a
            // case flip in the digest line cannot parse to the same value.
            .filter(|hex| {
                hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
            })
            .ok_or_else(|| format!("last line must be `digest <16 hex>`, found `{last}`"))?;
        let want = u64::from_str_radix(digest_hex, 16)
            .map_err(|e| format!("bad digest `{digest_hex}`: {e}"))?;
        let body = &text[..head.len() + 1];
        let got = fnv1a(body.as_bytes());
        if want != got {
            return Err(format!(
                "snapshot digest mismatch: file says {digest_hex}, content hashes to {got:016x} \
                 (truncated write or edited file)"
            ));
        }

        // fnv1a detects corruption but does not authenticate: a
        // re-digested file is trusted, so every count and index below is
        // range-checked before it sizes or indexes anything.
        let mut cur = Cursor {
            lines: body.lines(),
            lineno: 0,
            left: body.lines().count(),
        };
        let schema = cur.next_line()?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "unsupported snapshot schema `{schema}` (this build reads {SNAPSHOT_SCHEMA})"
            ));
        }
        let fingerprint = cur.tagged("fingerprint")?.hex("fingerprint")?;
        let requests = cur.tagged("requests")?.field("requests")?;
        let seed = cur.tagged("seed")?.field("seed")?;
        let at_s = cur.tagged("at")?.bits("at")?;
        let checkpoints = cur.tagged("checkpoints")?.field("checkpoints")?;
        let seq = cur
            .tagged("seq")?
            .field_where("seq < 2^56", |s: &u64| *s < 1 << 56)?;
        let peak_event_queue = cur.tagged("peak_events")?.field("peak_events")?;
        let mut t = cur.tagged("next_arrival")?;
        let next_arrival = match t.clone().next() {
            Some("none") => None,
            _ => Some(request(&mut t)?),
        };
        let mut t = cur.tagged("totals")?;
        let mut totals = RunTotals::new(Vec::new());
        totals.offered = t.field("offered")?;
        totals.shed = t.field("shed")?;
        totals.rec_fold = t.hex("rec_fold")?;
        totals.rec_count = t.field("rec_count")?;
        totals.latency_sum_ms = t.bits("latency_sum")?;
        totals.wait_sum_ms = t.bits("wait_sum")?;
        totals.max_finish_s = t.bits("max_finish")?;
        totals.last_arrival_s = t.bits("last_arrival")?;
        totals.max_queue_depth = t.field("max_queue_depth")?;
        totals.latency_ms = parse_sketch(cur.tagged("sketch")?)?;
        let n_classes: usize = cur.tagged("classes")?.field("classes")?;
        for _ in 0..n_classes {
            let mut t = cur.tagged("class")?;
            totals.classes.push(ClassTotals {
                completed: t.field("class completed")?,
                shed: t.field("class shed")?,
                slo_hits: t.field("class slo_hits")?,
                latency_sum_ms: t.bits("class latency_sum")?,
                slo_ms: match t.clone().next() {
                    Some("-") => t.next().and(None),
                    _ => Some(t.bits("class slo")?),
                },
                name: t.rest("class name")?.to_string(),
                latency_ms: parse_sketch(cur.tagged("sketch")?)?,
            });
        }
        let n_records: usize = cur.tagged("records")?.field("records")?;
        for _ in 0..n_records {
            let mut t = cur.tagged("record")?;
            totals.records.push(RequestRecord {
                id: t.field("record id")?,
                network: t.field("record network")?,
                chip: t.field("record chip")?,
                arrival_s: t.bits("record arrival")?,
                start_s: t.bits("record start")?,
                finish_s: t.bits("record finish")?,
            });
        }
        let n_queued: usize = cur.tagged("queued")?.field("queued")?;
        let mut queue = Vec::with_capacity(cur.capacity(n_queued));
        for _ in 0..n_queued {
            queue.push(request(&mut cur.tagged("req")?)?);
        }
        let n_events: usize = cur.tagged("events")?.field("events")?;
        let mut events = Vec::with_capacity(cur.capacity(n_events));
        for _ in 0..n_events {
            let mut t = cur.tagged("event")?;
            let time_bits = t.hex("event time")?;
            let class: u8 = t.field("event class")?;
            let ev_seq = t.field_where("event seq < 2^56", |s: &u64| *s < 1 << 56)?;
            let kind = match t.token("event kind")? {
                "fault" => {
                    let which = t.token("fault kind")?;
                    let chip = t.field("fault chip")?;
                    EventKind::Fault(match which {
                        "chip_offline" => FaultKind::ChipOffline { chip },
                        "chip_online" => FaultKind::ChipOnline { chip },
                        "plcg_offline" => FaultKind::PlcgOffline {
                            chip,
                            count: t.field("fault count")?,
                        },
                        "plcg_restore" => FaultKind::PlcgRestore {
                            chip,
                            count: t.field("fault count")?,
                        },
                        other => return Err(t.expected(other, "fault kind")),
                    })
                }
                "completion" => EventKind::Completion {
                    chip: t.field("completion chip")?,
                },
                "warmed" => EventKind::WarmedUp {
                    chip: t.field("warmed chip")?,
                },
                "timer" => EventKind::Timer,
                other => return Err(t.expected(other, "event kind")),
            };
            events.push((time_bits, class, ev_seq, kind));
        }
        let n_chips: usize = cur.tagged("chips")?.field("chips")?;
        let mut chips = Vec::with_capacity(cur.capacity(n_chips));
        for _ in 0..n_chips {
            let mut t = cur.tagged("chip")?;
            chips.push(ChipState {
                online: t.field::<u64>("chip online")? != 0,
                plcgs_down: t.field("chip plcgs_down")?,
                busy: t.field::<u64>("chip busy")? != 0,
                busy_s: t.bits("chip busy_s")?,
                energy_j: t.bits("chip energy")?,
                served: t.field("chip served")?,
                batches: t.field("chip batches")?,
                parked: t.field::<u64>("chip parked")? != 0,
                warming: t.field::<u64>("chip warming")? != 0,
                provisioned_s: t.bits("chip provisioned_s")?,
                provisioned_at_s: t.bits("chip provisioned_at")?,
                spin_ups: t.field("chip spin_ups")?,
            });
        }
        // The burn-rate alert section, the only lines after the chips,
        // is absent on classless runs and from pre-alerting builds.
        if cur.left > 0 {
            let mut t = cur.tagged("alerts")?;
            let policy = AlertPolicy {
                target: t.bits("alert target")?,
                fast: BurnRule {
                    short_s: t.bits("fast short")?,
                    long_s: t.bits("fast long")?,
                    factor: t.bits("fast factor")?,
                },
                slow: BurnRule {
                    short_s: t.bits("slow short")?,
                    long_s: t.bits("slow long")?,
                    factor: t.bits("slow factor")?,
                },
            };
            let windows = [policy.fast, policy.slow].map(|r| [r.short_s, r.long_s]);
            if !(0.0..1.0).contains(&policy.target)
                || !windows
                    .as_flattened()
                    .iter()
                    .all(|w| w.is_finite() && *w > 0.0)
            {
                return Err(t.missing("an alert target in [0, 1) and finite positive windows"));
            }
            let n_states: usize = t.field("alert states")?;
            let n_events: usize = t.field("alert events")?;
            let dropped = t.field("alert dropped")?;
            let mut states: Vec<Option<ClassAlertState>> = vec![None; totals.classes.len()];
            for _ in 0..n_states {
                let mut t = cur.tagged("astate")?;
                let class = t.field_where("astate class inside the class table", |c: &usize| {
                    *c < states.len()
                })?;
                let mut st = ClassAlertState::new(&policy);
                st.fast_firing = t.field::<u64>("astate fast")? != 0;
                st.slow_firing = t.field::<u64>("astate slow")? != 0;
                for w in [
                    &mut st.fast_short,
                    &mut st.fast_long,
                    &mut st.slow_short,
                    &mut st.slow_long,
                ] {
                    parse_window(cur.tagged("awin")?, w)?;
                }
                states[class] = Some(st);
            }
            let mut events = Vec::with_capacity(cur.capacity(n_events));
            for _ in 0..n_events {
                let mut t = cur.tagged("aevent")?;
                events.push(AlertEvent {
                    class: t.field("aevent class")?,
                    rule: match t.token("aevent rule")? {
                        "fast" => AlertRule::Fast,
                        "slow" => AlertRule::Slow,
                        other => return Err(t.expected(other, "alert rule fast or slow")),
                    },
                    fire: t.field::<u64>("aevent fire")? != 0,
                    at_s: t.bits("aevent at")?,
                    burn_short: t.bits("aevent burn_short")?,
                    burn_long: t.bits("aevent burn_long")?,
                });
            }
            totals.alerts = AlertBook {
                policy,
                states,
                events,
                dropped,
            };
        }
        Ok(SimSnapshot {
            fingerprint,
            requests,
            seed,
            at_s,
            checkpoints,
            seq,
            next_arrival,
            totals,
            queue,
            events,
            peak_event_queue,
            chips,
        })
    }
}

/// A `<id> <arrival bits> <network> <class>` request record (the
/// `next_arrival` and `req` lines).
fn request(t: &mut Lexer<'_>) -> Result<Request, String> {
    Ok(Request {
        id: t.field("request id")?,
        arrival_s: t.bits("request arrival")?,
        network: t.field("request network")?,
        class: t.field("request class")?,
    })
}

/// One trailing-window ring as `awin <cur> <k> slot:total:miss ...`
/// (nonzero slots only; bucket width is derived from the policy).
fn write_window(out: &mut String, w: &WindowCounts) {
    let nonzero: Vec<(usize, u64, u64)> = w
        .total
        .iter()
        .zip(&w.miss)
        .enumerate()
        .filter(|(_, (&t, _))| t > 0)
        .map(|(i, (&t, &m))| (i, t, m))
        .collect();
    let _ = write!(out, "awin {} {}", w.cur, nonzero.len());
    for (slot, total, miss) in nonzero {
        let _ = write!(out, " {slot}:{total}:{miss}");
    }
    out.push('\n');
}

/// Fills a policy-initialized [`WindowCounts`] from its `awin` line.
fn parse_window(mut t: Lexer<'_>, w: &mut WindowCounts) -> Result<(), String> {
    w.cur = t.field("awin cur")?;
    let n: usize = t.field("awin slots")?;
    for _ in 0..n {
        let triple = t.token("awin slot")?;
        let mut s = t.split(triple, ':');
        let slot = s.field_where("awin slot inside the ring", |i: &usize| *i < w.total.len())?;
        w.total[slot] = s.field("awin total")?;
        w.miss[slot] = s.field("awin miss")?;
    }
    Ok(())
}

fn write_sketch(out: &mut String, s: &QuantileSketch) {
    let buckets = s.nonzero_buckets();
    let _ = write!(
        out,
        "sketch {} {} {:016x} {:016x} {}",
        s.zeros(),
        s.invalid(),
        s.min_bits(),
        s.max_bits(),
        buckets.len(),
    );
    for (idx, count) in &buckets {
        let _ = write!(out, " {idx}:{count}");
    }
    out.push('\n');
}

fn parse_sketch(mut t: Lexer<'_>) -> Result<QuantileSketch, String> {
    let zeros = t.field("sketch zeros")?;
    let invalid = t.field("sketch invalid")?;
    let min_bits = t.hex("sketch min")?;
    let max_bits = t.hex("sketch max")?;
    let n: usize = t.field("sketch buckets")?;
    let mut buckets = Vec::new();
    for _ in 0..n {
        let pair = t.token("sketch bucket")?;
        let mut p = t.split(pair, ':');
        let idx = p.field_where("sketch bucket index", |i: &u16| (*i as usize) < MAX_BUCKETS)?;
        buckets.push((idx, p.field("sketch bucket count")?));
    }
    Ok(QuantileSketch::from_parts(
        &buckets, zeros, invalid, min_bits, max_bits,
    ))
}

struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    lineno: usize,
    /// Lines not yet read — the bound on any preallocation, since every
    /// counted record takes a line of its own.
    left: usize,
}

impl<'a> Cursor<'a> {
    fn next_line(&mut self) -> Result<&'a str, String> {
        self.lineno += 1;
        self.left = self.left.saturating_sub(1);
        self.lines
            .next()
            .ok_or_else(|| format!("line {}: unexpected end of snapshot", self.lineno))
    }

    /// The fields of the next line, which must start with `tag`.
    fn tagged(&mut self, tag: &str) -> Result<Lexer<'a>, String> {
        let line = self.next_line()?;
        let mut fields = Lexer::new("snapshot", line, ' ');
        match fields.next() {
            Some(found) if found == tag => Ok(fields),
            _ => Err(format!(
                "line {}: expected `{tag} ...`, found `{line}`",
                self.lineno
            )),
        }
    }

    /// A preallocation for `n` records, bounded by the lines left.
    fn capacity(&self, n: usize) -> usize {
        n.min(self.left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimSnapshot {
        let mut interactive = ClassTotals::new("interactive", Some(5.0));
        interactive.completed = 7;
        interactive.slo_hits = 6;
        interactive.latency_sum_ms = 12.5;
        interactive.latency_ms.observe(1.25);
        interactive.latency_ms.observe(3.5);
        let mut batch = ClassTotals::new("batch", None);
        batch.shed = 2;
        let mut totals = RunTotals::new(vec![interactive, batch]);
        totals.offered = 10;
        totals.shed = 2;
        totals.rec_fold = 0xDEAD_BEEF;
        totals.rec_count = 7;
        totals.latency_ms.observe(1.25);
        totals.latency_ms.observe(3.5);
        totals.latency_sum_ms = 12.5;
        totals.wait_sum_ms = 0.5;
        totals.max_finish_s = 0.012;
        totals.last_arrival_s = 0.011;
        totals.max_queue_depth = 4;
        totals.records.push(RequestRecord {
            id: 3,
            network: 1,
            chip: 0,
            arrival_s: 0.001,
            start_s: 0.0015,
            finish_s: 0.003,
        });
        SimSnapshot {
            fingerprint: 0x1234_5678_9ABC_DEF0,
            requests: 100,
            seed: 42,
            at_s: 0.0105,
            checkpoints: 3,
            seq: 17,
            next_arrival: Some(Request {
                id: 10,
                network: 0,
                arrival_s: 0.0107,
                class: 1,
            }),
            totals,
            queue: vec![Request {
                id: 9,
                network: 1,
                arrival_s: 0.0101,
                class: 0,
            }],
            events: vec![
                (
                    0.0108f64.to_bits(),
                    0,
                    5,
                    EventKind::Fault(FaultKind::PlcgRestore { chip: 1, count: 2 }),
                ),
                (
                    0.0110f64.to_bits(),
                    1,
                    12,
                    EventKind::Completion { chip: 0 },
                ),
                (0.0111f64.to_bits(), 1, 14, EventKind::WarmedUp { chip: 1 }),
                (0.0120f64.to_bits(), 3, 15, EventKind::Timer),
            ],
            peak_event_queue: 9,
            chips: vec![ChipState {
                online: true,
                plcgs_down: 2,
                busy: true,
                busy_s: 0.004,
                energy_j: 1.5,
                served: 7,
                batches: 3,
                parked: false,
                warming: false,
                provisioned_s: 0.0,
                provisioned_at_s: 0.0,
                spin_ups: 1,
            }],
        }
    }

    #[test]
    fn snapshot_round_trips_byte_exactly() {
        let snap = sample();
        let text = snap.to_text();
        assert!(text.starts_with("albireo.snapshot/v1\n"));
        let parsed = SimSnapshot::parse(&text).expect("parse");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_text(), text, "re-serialization is byte-stable");
    }

    #[test]
    fn snapshot_with_drained_stream_round_trips() {
        let mut snap = sample();
        snap.next_arrival = None;
        let text = snap.to_text();
        let parsed = SimSnapshot::parse(&text).expect("parse");
        assert_eq!(parsed.next_arrival, None);
        assert_eq!(parsed, snap);
    }

    #[test]
    fn tampered_snapshots_are_rejected() {
        let text = sample().to_text();
        // Flip one content byte: the digest no longer matches.
        let tampered = text.replacen("seed 42", "seed 43", 1);
        let err = SimSnapshot::parse(&tampered).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
        // Truncate mid-file: the digest line is gone entirely.
        let truncated = &text[..text.len() / 2];
        assert!(SimSnapshot::parse(truncated).is_err());
        // Wrong schema tag fails even with a correct digest.
        let mut body = text
            .rsplit_once("digest ")
            .map(|(b, _)| b.to_string())
            .unwrap();
        body = body.replacen("albireo.snapshot/v1", "albireo.snapshot/v9", 1);
        let digest = albireo_obs::fnv1a(body.as_bytes());
        let rewritten = format!("{body}digest {digest:016x}\n");
        let err = SimSnapshot::parse(&rewritten).unwrap_err();
        assert!(err.contains("unsupported snapshot schema"), "{err}");
    }

    /// `text` with `from` replaced by `to` and the digest line rewritten
    /// to match — a forged snapshot fnv1a cannot catch.
    fn redigested(text: &str, from: &str, to: &str) -> String {
        let body = text.rsplit_once("digest ").unwrap().0.replacen(from, to, 1);
        assert_ne!(
            body,
            text.rsplit_once("digest ").unwrap().0,
            "`{from}` not found"
        );
        format!(
            "{body}digest {:016x}\n",
            albireo_obs::fnv1a(body.as_bytes())
        )
    }

    #[test]
    fn redigested_counts_and_indices_are_range_checked() {
        let text = sample().to_text();
        let past_the_sketch = format!(" 2 {MAX_BUCKETS}:1 ");
        for (from, to) in [
            // A forged count must not preallocate past the file.
            ("queued 1\n", "queued 18446744073709551615\n"),
            ("events 4\n", "events 18446744073709551615\n"),
            // A bucket index past MAX_BUCKETS would trip the sketch.
            (" 2 2056:1 ", past_the_sketch.as_str()),
        ] {
            let forged = redigested(&text, from, to);
            assert!(SimSnapshot::parse(&forged).is_err(), "accepted {to:?}");
        }
        let forged = redigested(&text, " 1 12 completion", " 256 12 completion");
        let err = SimSnapshot::parse(&forged).unwrap_err();
        assert!(err.contains("expected event class"), "{err}");
    }

    #[test]
    fn truncations_are_rejected() {
        let text = sample().to_text();
        for cut in 0..text.len() {
            assert!(SimSnapshot::parse(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn progress_json_reports_the_boundary() {
        let line = sample().progress_json();
        assert!(line.starts_with("{\"schema\": \"albireo.serve.progress/v1\""));
        assert!(line.contains("\"checkpoint\": 3"));
        assert!(line.contains("\"offered\": 10"));
        assert!(line.contains("\"queued\": 1"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn accessors_summarize_the_totals() {
        let snap = sample();
        assert_eq!(snap.offered(), 10);
        assert_eq!(snap.completed(), 7);
        assert_eq!(snap.shed(), 2);
        assert_eq!(snap.queue_len(), 1);
        assert_eq!(snap.pending_events(), 4);
        assert_eq!(snap.checkpoints(), 3);
        assert!(snap.p50_ms() > 0.0);
        assert!(snap.p99_ms() >= snap.p50_ms());
    }
}
