//! Checkpoints of an in-flight serving run.
//!
//! A run is a pure function of `(fleet, config)` (DESIGN.md §8), so a
//! checkpoint does not hold the engine's state. A [`Checkpoint`] records
//! which boundary of which run it is — the configuration fingerprint,
//! request count, seed and interval, the boundary's ordinal and instant
//! — the counts the run had reached there and a fold of every arrival it
//! had taken from its stream. Resume
//! ([`crate::sim::resume_checkpointed`]) replays the run from t = 0 to
//! that boundary, checks the replayed counts against the record, and
//! continues; the resumed report is byte-identical to the uninterrupted
//! run's.
//!
//! At each boundary the checkpoint callback sees a [`SimSnapshot`]: the
//! run's streaming accumulators at that instant, rendered as the
//! progress line, the alert lines and the OpenMetrics view.
//!
//! ## Wire format — `albireo.snapshot/v3`
//!
//! Line-oriented text, one `tag value` field per line, the two `f64`s as
//! 16-hex-digit IEEE-754 bit patterns. The final line is
//! `digest <16-hex>`: an FNV-1a hash of every preceding byte, so torn
//! writes and hand edits are rejected before any field is read. DESIGN.md
//! §13 documents the format.

use crate::alerts::{AlertEvent, ALERT_EVENT_CAP};
use crate::grammar::Lexer;
use crate::report::RunTotals;
use albireo_obs::fnv1a;
use albireo_obs::json::{num, Obj};
use std::fmt::Write as _;
use std::str::FromStr;

/// Schema tag on the first line of every snapshot file.
pub const SNAPSHOT_SCHEMA: &str = "albireo.snapshot/v3";

/// One checkpoint boundary of one run, as `--checkpoint-out` writes it:
/// enough to replay the run to the boundary and check that the replay
/// reached the same place. Produce one with [`SimSnapshot::record`] or
/// [`Checkpoint::parse`]; resume from it with
/// [`crate::sim::resume_checkpointed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// FNV-1a over the fleet label and the full `ServeConfig` debug
    /// rendering — resume refuses a mismatched configuration.
    pub(crate) fingerprint: u64,
    /// Configured request count.
    pub(crate) requests: usize,
    /// Master seed.
    pub(crate) seed: u64,
    /// Virtual seconds between boundaries.
    pub(crate) every_s: f64,
    /// The boundary's ordinal `k`, from 1.
    pub(crate) checkpoint: u64,
    /// The boundary's instant, `k × every_s`, s.
    pub(crate) at_s: f64,
    /// Requests offered before the boundary.
    pub(crate) offered: u64,
    /// Requests completed before the boundary.
    pub(crate) completed: u64,
    /// Requests shed before the boundary.
    pub(crate) shed: u64,
    /// The report digest's record section folded so far.
    pub(crate) rec_fold: u64,
    /// Fold of the id, network, class and arrival-time bits of every
    /// arrival the run had taken from its stream — the queued and
    /// in-flight requests included, which no count or record covers yet.
    pub(crate) arrival_fold: u64,
    /// Alert transitions emitted before the boundary — the cursor that
    /// keeps the alert JSONL stream exactly-once across a resume.
    pub(crate) alerts: usize,
}

impl Checkpoint {
    /// Alert transitions emitted before the boundary.
    pub fn alerts(&self) -> usize {
        self.alerts
    }

    /// The record's `albireo.snapshot/v3` text, ending with the
    /// self-digest line.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(320);
        out.push_str(SNAPSHOT_SCHEMA);
        out.push('\n');
        let _ = writeln!(out, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(out, "requests {}", self.requests);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "every {:016x}", self.every_s.to_bits());
        let _ = writeln!(out, "checkpoint {}", self.checkpoint);
        let _ = writeln!(out, "at {:016x}", self.at_s.to_bits());
        let _ = writeln!(out, "offered {}", self.offered);
        let _ = writeln!(out, "completed {}", self.completed);
        let _ = writeln!(out, "shed {}", self.shed);
        let _ = writeln!(out, "rec_fold {:016x}", self.rec_fold);
        let _ = writeln!(out, "arrival_fold {:016x}", self.arrival_fold);
        let _ = writeln!(out, "alerts {}", self.alerts);
        let digest = fnv1a(out.as_bytes());
        let _ = writeln!(out, "digest {digest:016x}");
        out
    }

    /// Parses an `albireo.snapshot/v3` record, verifying the trailing
    /// self-digest before interpreting a single field.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
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

        let mut lines = body.lines();
        let schema = lines.next().unwrap_or_default();
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "unsupported snapshot schema `{schema}` (this build reads {SNAPSHOT_SCHEMA})"
            ));
        }
        // The fields of the next line, which must be `tag <one value>`.
        let mut line = |tag: &str| -> Result<Lexer<'_>, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("snapshot ends before its `{tag}` line"))?;
            let mut fields = Lexer::new("snapshot", line, ' ');
            match fields.next() {
                Some(found) if found == tag => Ok(fields),
                _ => Err(format!("expected `{tag} ...`, found `{line}`")),
            }
        };
        fn value<T: FromStr>(mut fields: Lexer<'_>, what: &str) -> Result<T, String> {
            let v = fields.field(what)?;
            fields.end().map(|()| v)
        }
        fn hex(mut fields: Lexer<'_>, what: &str) -> Result<u64, String> {
            let v = fields.hex(what)?;
            fields.end().map(|()| v)
        }
        // fnv1a detects damage but does not authenticate: a re-digested
        // file is trusted, so every field is range-checked against the
        // others before resume acts on it.
        let record = Checkpoint {
            fingerprint: hex(line("fingerprint")?, "fingerprint")?,
            requests: value(line("requests")?, "requests")?,
            seed: value(line("seed")?, "seed")?,
            every_s: f64::from_bits(hex(line("every")?, "every")?),
            checkpoint: value(line("checkpoint")?, "checkpoint")?,
            at_s: f64::from_bits(hex(line("at")?, "at")?),
            offered: value(line("offered")?, "offered")?,
            completed: value(line("completed")?, "completed")?,
            shed: value(line("shed")?, "shed")?,
            rec_fold: hex(line("rec_fold")?, "rec_fold")?,
            arrival_fold: hex(line("arrival_fold")?, "arrival_fold")?,
            alerts: value(line("alerts")?, "alerts")?,
        };
        if let Some(extra) = lines.next() {
            return Err(format!("unexpected snapshot line `{extra}`"));
        }
        record.check()?;
        Ok(record)
    }

    /// The relations every record the writer emits satisfies.
    fn check(&self) -> Result<(), String> {
        if !(self.every_s.is_finite() && self.every_s > 0.0) {
            return Err(format!(
                "snapshot interval {} s is not finite and positive",
                self.every_s
            ));
        }
        if self.checkpoint == 0 {
            return Err("snapshot checkpoint must be at least 1".to_string());
        }
        if self.at_s.to_bits() != (self.checkpoint as f64 * self.every_s).to_bits() {
            return Err(format!(
                "snapshot boundary {} s is not checkpoint {} × {} s",
                self.at_s, self.checkpoint, self.every_s
            ));
        }
        let settled = self.completed.checked_add(self.shed);
        if settled.is_none_or(|settled| settled > self.offered) {
            return Err(format!(
                "snapshot counts {} completed + {} shed exceed {} offered",
                self.completed, self.shed, self.offered
            ));
        }
        if self.offered > self.requests as u64 {
            return Err(format!(
                "snapshot offered {} of {} requests",
                self.offered, self.requests
            ));
        }
        if self.alerts > ALERT_EVENT_CAP {
            return Err(format!(
                "snapshot counts {} alert transitions, a run keeps at most {ALERT_EVENT_CAP}",
                self.alerts
            ));
        }
        Ok(())
    }
}

/// The run at one checkpoint boundary, as the checkpoint callback sees
/// it: the streaming accumulators and queue depths at that instant.
/// [`crate::sim::simulate_checkpointed`] and
/// [`crate::sim::resume_checkpointed`] hand one to the callback at every
/// boundary; [`SimSnapshot::record`] is the [`Checkpoint`] to persist.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// FNV-1a over the fleet label and the full `ServeConfig`.
    pub(crate) fingerprint: u64,
    /// Configured request count.
    pub(crate) requests: usize,
    /// Master seed.
    pub(crate) seed: u64,
    /// Virtual seconds between boundaries.
    pub(crate) every_s: f64,
    /// The checkpoint boundary on the virtual clock, s. Every event
    /// strictly before this instant has been applied.
    pub(crate) at_s: f64,
    /// This checkpoint's ordinal `k`: `at_s` is `k × every_s`.
    pub(crate) checkpoints: u64,
    /// Fold of every arrival taken from the stream (see
    /// [`Checkpoint`]).
    pub(crate) arrival_fold: u64,
    /// Streaming accumulators, including the capped record sample.
    pub(crate) totals: RunTotals,
    /// Requests waiting in the dispatch queue.
    pub(crate) queued: usize,
    /// Events pending in the DES queue.
    pub(crate) pending_events: usize,
}

impl SimSnapshot {
    /// The record that identifies this boundary — what `--checkpoint-out`
    /// writes and resume checks its replay against.
    pub fn record(&self) -> Checkpoint {
        Checkpoint {
            fingerprint: self.fingerprint,
            requests: self.requests,
            seed: self.seed,
            every_s: self.every_s,
            checkpoint: self.checkpoints,
            at_s: self.at_s,
            offered: self.totals.offered,
            completed: self.totals.rec_count,
            shed: self.totals.shed,
            rec_fold: self.totals.rec_fold,
            arrival_fold: self.arrival_fold,
            alerts: self.totals.alerts.events.len(),
        }
    }

    /// [`SimSnapshot::record`] as `albireo.snapshot/v3` text.
    pub fn to_text(&self) -> String {
        self.record().to_text()
    }

    /// The checkpoint boundary on the virtual clock, s.
    pub fn at_s(&self) -> f64 {
        self.at_s
    }

    /// This checkpoint's ordinal `k`, the boundary `k × every_s`.
    /// Ordinals jump across intervals in which no event happened.
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

    /// Events pending in the DES queue at the boundary.
    pub fn pending_events(&self) -> usize {
        self.pending_events
    }

    /// Median end-to-end latency so far, ms (sketch estimate).
    pub fn p50_ms(&self) -> f64 {
        self.totals.latency_ms.quantile(0.50)
    }

    /// 99th-percentile latency so far, ms (sketch estimate).
    pub fn p99_ms(&self) -> f64 {
        self.totals.latency_ms.quantile(0.99)
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
        r.gauge("serve.queue_depth").set(self.queued as f64);
        r.gauge("serve.pending_events")
            .set(self.pending_events as f64);
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
            .field("queued", self.queued)
            .field("events", self.pending_events)
            .field("p50_ms", num(self.p50_ms()))
            .field("p99_ms", num(self.p99_ms()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ClassTotals;

    fn sample() -> SimSnapshot {
        let mut interactive = ClassTotals::new("interactive", Some(5.0));
        interactive.completed = 7;
        interactive.latency_ms.observe(1.25);
        let mut totals = RunTotals::new(vec![interactive, ClassTotals::new("batch", None)]);
        totals.offered = 10;
        totals.shed = 2;
        totals.rec_fold = 0xDEAD_BEEF;
        totals.rec_count = 7;
        totals.latency_ms.observe(1.25);
        totals.latency_ms.observe(3.5);
        SimSnapshot {
            fingerprint: 0x1234_5678_9ABC_DEF0,
            requests: 100,
            seed: 42,
            every_s: 0.0035,
            at_s: 3.0 * 0.0035,
            checkpoints: 3,
            arrival_fold: 0x0123_4567_89AB_CDEF,
            totals,
            queued: 1,
            pending_events: 4,
        }
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
    fn snapshot_round_trips_byte_exactly() {
        let record = sample().record();
        let text = record.to_text();
        assert!(text.starts_with("albireo.snapshot/v3\n"));
        assert_eq!(text.lines().count(), 14, "{text}");
        let parsed = Checkpoint::parse(&text).expect("parse");
        assert_eq!(parsed, record);
        assert_eq!(parsed.to_text(), text, "re-serialization is byte-stable");
        assert_eq!(sample().to_text(), text);
    }

    #[test]
    fn snapshot_with_drained_stream_round_trips() {
        // The last boundaries of a run come after its final arrival:
        // every request offered, and all of them settled.
        let mut snap = sample();
        snap.totals.offered = 100;
        snap.totals.rec_count = 98;
        let record = snap.record();
        assert_eq!(Checkpoint::parse(&record.to_text()), Ok(record));
    }

    #[test]
    fn tampered_snapshots_are_rejected() {
        let text = sample().to_text();
        // Flip one content byte: the digest no longer matches.
        let tampered = text.replacen("seed 42", "seed 43", 1);
        let err = Checkpoint::parse(&tampered).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
        // Truncate mid-file: the digest line is gone entirely.
        let truncated = &text[..text.len() / 2];
        assert!(Checkpoint::parse(truncated).is_err());
        // Another schema tag fails even with a correct digest — the
        // engine-state format and the record without an arrival fold
        // among them.
        for schema in [
            "albireo.snapshot/v1",
            "albireo.snapshot/v2",
            "albireo.snapshot/v9",
        ] {
            let err = Checkpoint::parse(&redigested(&text, SNAPSHOT_SCHEMA, schema)).unwrap_err();
            assert!(err.contains("unsupported snapshot schema"), "{err}");
        }
    }

    #[test]
    fn redigested_counts_and_indices_are_range_checked() {
        let text = sample().to_text();
        let bits = |tag: &str, v: f64| format!("{tag} {:016x}\n", v.to_bits());
        let (every, at) = (bits("every", 0.0035), bits("at", 3.0 * 0.0035));
        let later = format!("at {:016x}\n", (3.0 * 0.0035f64).to_bits() + 1);
        let (infinite, negative) = (bits("every", f64::INFINITY), bits("every", -0.0035));
        for (from, to, why) in [
            ("checkpoint 3\n", "checkpoint 0\n", "at least 1"),
            ("checkpoint 3\n", "checkpoint 4\n", "is not checkpoint 4"),
            (at.as_str(), later.as_str(), "is not checkpoint 3"),
            (every.as_str(), infinite.as_str(), "finite and positive"),
            (every.as_str(), negative.as_str(), "finite and positive"),
            ("completed 7\n", "completed 9\n", "exceed 10 offered"),
            (
                "shed 2\n",
                "shed 18446744073709551615\n",
                "exceed 10 offered",
            ),
            ("offered 10\n", "offered 101\n", "offered 101 of 100"),
            ("alerts 0\n", "alerts 1025\n", "at most 1024"),
            ("seed 42\n", "seed 42 43\n", "expected end of input"),
            ("seed 42\n", "seed -1\n", "expected seed"),
            ("shed 2\n", "", "expected `shed ...`"),
            (
                "arrival_fold 0123456789abcdef\n",
                "",
                "expected `arrival_fold ...`",
            ),
            (
                "alerts 0\n",
                "alerts 0\nalerts 0\n",
                "unexpected snapshot line",
            ),
        ] {
            let forged = redigested(&text, from, to);
            let err = Checkpoint::parse(&forged).unwrap_err();
            assert!(err.contains(why), "{to:?}: {err}");
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let text = sample().to_text();
        for cut in 0..text.len() {
            assert!(Checkpoint::parse(&text[..cut]).is_err(), "cut at {cut}");
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
        assert_eq!(snap.pending_events(), 4);
        assert_eq!(snap.checkpoints(), 3);
        assert!(snap.p50_ms() > 0.0);
        assert!(snap.p99_ms() >= snap.p50_ms());
        assert_eq!(snap.record().alerts(), 0);
    }
}
