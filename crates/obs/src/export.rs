//! Trace exporters: JSONL event stream and Chrome/Perfetto
//! `trace_event` JSON.
//!
//! Both exporters consume a stream already drained via
//! [`crate::span::TraceBuffer::drain_sorted`], so their output order —
//! and therefore their bytes — is deterministic under a fixed seed.
//!
//! The Chrome format is the object form
//! `{"traceEvents": [...], "displayTimeUnit": "ms"}` accepted by both
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev).
//! Virtual seconds are scaled to microseconds (the unit the format
//! mandates) and rendered with a fixed `{:.3}` precision so equal
//! virtual timestamps stay equal on disk.

use crate::json::{Fixed, Obj, ToJson};
use crate::span::{Event, Phase};

/// Microseconds per virtual second in the Chrome export.
const US_PER_S: f64 = 1.0e6;

fn args_json(e: &Event) -> Obj {
    let args = e.args.iter().fold(Obj::new(), |o, (k, v)| o.field(k, v));
    match e.wall_ns {
        Some(ns) => args.field("wall_ns", ns),
        None => args,
    }
}

/// One JSONL line per event: `{"ts": ..., "track": ..., "phase": ...,
/// "name": ..., "args": {...}}`. Timestamps keep full virtual-second
/// precision (`{:.9}`).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let phase = match e.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::Counter => "C",
        };
        Obj::new()
            .field("ts", Fixed(e.ts_s, 9))
            .field("track", e.track)
            .field("phase", phase)
            .field("name", &e.name)
            .field("args", args_json(e))
            .write_json(&mut out);
        out.push('\n');
    }
    out
}

/// A Chrome record's common head: phase, process and thread.
fn record(ph: &str, track: u32) -> Obj {
    Obj::new()
        .field("ph", ph)
        .field("pid", 1u32)
        .field("tid", track)
}

/// Chrome/Perfetto `trace_event` JSON.
///
/// Begin/End pairs are matched per `(track, name)` stack and emitted as
/// complete (`ph: "X"`) events; instants become `ph: "i"` with thread
/// scope; counters become `ph: "C"`. `track_names` adds
/// `thread_name` metadata records so viewers label each track.
pub fn to_chrome_trace(events: &[Event], track_names: &[(u32, String)]) -> String {
    const HEAD: &str = "{\"traceEvents\": [\n";
    let mut out = String::from(HEAD);
    let push = |out: &mut String, record: Obj| {
        if out.len() > HEAD.len() {
            out.push_str(",\n");
        }
        record.write_json(out);
    };
    for (track, name) in track_names {
        let args = Obj::new().field("name", name);
        push(
            &mut out,
            record("M", *track)
                .field("name", "thread_name")
                .field("args", args),
        );
    }
    // Open-span stacks keyed by (track, name); keys ordered for determinism
    // although input order already fixes the output.
    let mut open: std::collections::BTreeMap<(u32, String), Vec<&Event>> =
        std::collections::BTreeMap::new();
    for e in events {
        match e.phase {
            Phase::Begin => {
                open.entry((e.track, e.name.clone())).or_default().push(e);
            }
            Phase::End => {
                let begin = open.get_mut(&(e.track, e.name.clone())).and_then(Vec::pop);
                if let Some(b) = begin {
                    let dur_us = (e.ts_s - b.ts_s).max(0.0) * US_PER_S;
                    push(
                        &mut out,
                        record("X", b.track)
                            .field("ts", Fixed(b.ts_s * US_PER_S, 3))
                            .field("dur", Fixed(dur_us, 3))
                            .field("name", &b.name)
                            .field("args", args_json(b)),
                    );
                }
            }
            Phase::Instant => push(
                &mut out,
                record("i", e.track)
                    .field("ts", Fixed(e.ts_s * US_PER_S, 3))
                    .field("s", "t")
                    .field("name", &e.name)
                    .field("args", args_json(e)),
            ),
            Phase::Counter => push(
                &mut out,
                record("C", e.track)
                    .field("ts", Fixed(e.ts_s * US_PER_S, 3))
                    .field("name", &e.name)
                    .field("args", args_json(e)),
            ),
        }
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceBuffer;

    fn sample_events() -> Vec<Event> {
        let buf = TraceBuffer::default();
        buf.record(0, 0.001, Phase::Begin, "layer", vec![("idx", 0)], None);
        buf.record(0, 0.002, Phase::End, "layer", Vec::new(), None);
        buf.record(1, 0.0015, Phase::Instant, "shed", Vec::new(), None);
        buf.record(
            1,
            0.0015,
            Phase::Counter,
            "queue_depth",
            vec![("depth", 3)],
            None,
        );
        buf.drain_sorted()
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let text = to_jsonl(&sample_events());
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("\"phase\": \"B\""));
        assert!(text.contains("\"name\": \"shed\""));
    }

    #[test]
    fn chrome_trace_pairs_spans_into_complete_events() {
        let events = sample_events();
        let trace = to_chrome_trace(&events, &[(0, "chip0".to_string())]);
        assert!(trace.starts_with("{\"traceEvents\": ["));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"dur\": 1000.000"));
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("\"ph\": \"i\""));
        assert!(trace.contains("\"ph\": \"C\""));
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    }

    #[test]
    fn unbalanced_end_is_ignored() {
        let buf = TraceBuffer::default();
        buf.record(0, 1.0, Phase::End, "stray", Vec::new(), None);
        let trace = to_chrome_trace(&buf.drain_sorted(), &[]);
        assert!(!trace.contains("\"ph\": \"X\""));
    }

    #[test]
    fn escapes_strings() {
        let buf = TraceBuffer::default();
        buf.record(0, 1.0, Phase::Instant, "a\"b", Vec::new(), None);
        let trace = to_chrome_trace(&buf.drain_sorted(), &[]);
        assert!(trace.contains("a\\\"b"));
    }

    #[test]
    fn hostile_names_round_trip_through_valid_json() {
        // Quotes, backslashes, newlines, and non-ASCII in span/counter
        // names must all come back intact through a real JSON parse.
        let names = [
            "plain",
            "has\"quote",
            "back\\slash",
            "new\nline",
            "unicode µs → latency 😀",
        ];
        let buf = TraceBuffer::default();
        for (i, name) in names.iter().enumerate() {
            buf.record(0, i as f64, Phase::Instant, name, Vec::new(), None);
            buf.record(
                1,
                i as f64,
                Phase::Counter,
                name,
                vec![("value", i as u64)],
                None,
            );
        }
        let events = buf.drain_sorted();

        for line in to_jsonl(&events).lines() {
            let v = crate::jsonv::parse(line).expect("JSONL line parses");
            let got = v.get("name").unwrap().as_str().unwrap();
            assert!(names.contains(&got), "name mangled: {got:?}");
        }

        let trace = to_chrome_trace(&events, &[(0, "träck \"0\"".to_string())]);
        assert!(trace.is_ascii(), "chrome trace must be ASCII-safe");
        let v = crate::jsonv::parse(&trace).expect("chrome trace parses");
        let records = v.get("traceEvents").unwrap().as_arr().unwrap();
        // One metadata record + one record per instant/counter event.
        assert_eq!(records.len(), 1 + events.len());
        let parsed_names: Vec<&str> = records
            .iter()
            .skip(1)
            .map(|r| r.get("name").unwrap().as_str().unwrap())
            .collect();
        for name in names {
            assert!(parsed_names.contains(&name), "missing {name:?}");
        }
        assert_eq!(
            records[0]
                .get("args")
                .unwrap()
                .get("name")
                .unwrap()
                .as_str(),
            Some("träck \"0\"")
        );
    }

    #[test]
    fn metrics_snapshot_with_hostile_names_parses() {
        let r = crate::Registry::new();
        r.counter("ops \"quoted\"").add(1);
        r.gauge("g\\err").set(0.5);
        r.sketch("sk µ").observe(1.0);
        r.sketch("sk\new").observe(2.0);
        let json = r.snapshot().to_json();
        assert!(json.is_ascii());
        let v = crate::jsonv::parse(&json).expect("snapshot JSON parses");
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("ops \"quoted\"")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert!(v.get("sketches").unwrap().get("sk µ").is_some());
        assert!(v.get("sketches").unwrap().get("sk\new").is_some());
    }
}
