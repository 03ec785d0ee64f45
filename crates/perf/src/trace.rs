//! Chrome-trace (Perfetto JSON) export of lifecycle span logs.
//!
//! The obs layer already records every message's lifecycle transitions
//! (publish → capture → sequence → deliver, plus replay / suppress /
//! checkpoint) into per-component [`SpanLog`] rings. This module
//! converts those logs into the Trace Event Format that
//! `chrome://tracing` and <https://ui.perfetto.dev> load directly:
//!
//! - each component (kernel, recorder shard) becomes a *process* lane,
//!   named by a `process_name` metadata event, with every retained span
//!   event as an instant (`ph:"i"`) on the subject process's thread row;
//! - a synthetic "message lifecycles" process holds one complete-event
//!   (`ph:"X"`) slice per stage gap (publish→capture, capture→sequence,
//!   publish→deliver) so recorder service time is visible as bars;
//! - flow events (`ph:"s"` / `ph:"f"`, matched by `id`) draw causal
//!   arrows from each publish to its first delivery, and from the
//!   latest replay into a recovering process to each suppression of
//!   that process's regenerated resends — the same pairings the causal
//!   graph's `SequenceDeliver`/`ReplaySuppress` edges encode.
//!
//! All timestamps are virtual-time microseconds (the format's native
//! unit), so the export is deterministic: same run, same bytes.

use publishing_obs::json::{parse, Json, ObjBuilder, ParseError};
use publishing_obs::span::{assemble, MsgKey, SpanLog, Stage};
use publishing_sim::time::SimTime;
use std::collections::BTreeMap;

/// One trace event in Chrome's Trace Event Format.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (stage name, slice name, or metadata kind).
    pub name: String,
    /// Category tag (`lifecycle`, `gap`, or `__metadata`).
    pub cat: String,
    /// Phase: `M` metadata, `i` instant, `X` complete slice, `s`/`f`
    /// flow start/finish.
    pub ph: char,
    /// Timestamp in virtual-time microseconds.
    pub ts: f64,
    /// Slice duration in microseconds (`X` events only).
    pub dur: Option<f64>,
    /// Flow id pairing an `s` event with its `f` (flow events only).
    pub id: Option<u64>,
    /// Process lane.
    pub pid: u64,
    /// Thread lane within the process.
    pub tid: u64,
    /// Free-form string arguments shown in the UI's detail pane.
    pub args: Vec<(String, String)>,
}

/// A whole trace document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChromeTrace {
    /// The events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// Serializes to Trace Event Format JSON (object form, compact).
    pub fn to_json(&self) -> String {
        let events = self.events.iter().map(|e| {
            let mut o = ObjBuilder::new()
                .field("name", &e.name)
                .field("cat", &e.cat)
                .field("ph", e.ph.to_string())
                .field("ts", e.ts)
                .field("pid", e.pid as f64)
                .field("tid", e.tid as f64);
            if let Some(dur) = e.dur {
                o = o.field("dur", dur);
            }
            if let Some(id) = e.id {
                o = o.field("id", id as f64);
            }
            if e.ph == 'f' {
                // Bind the flow finish to the enclosing slice/instant
                // so viewers draw the arrow to the event itself.
                o = o.field("bp", "e");
            }
            if !e.args.is_empty() {
                o = o.field("args", Json::obj(e.args.iter().map(|(k, v)| (k, v))));
            }
            o
        });
        ObjBuilder::new()
            .field("displayTimeUnit", "ms")
            .field("traceEvents", Json::arr(events))
            .build()
            .write()
    }

    /// Parses a document previously produced by [`ChromeTrace::to_json`].
    pub fn from_json(text: &str) -> Result<ChromeTrace, ParseError> {
        let doc = parse(text)?;
        let bad = |what: &str| ParseError {
            expected: what.to_string(),
            at: 0,
        };
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("a traceEvents array"))?;
        let mut out = Vec::with_capacity(events.len());
        for e in events {
            let field_str = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| bad(&format!("string field {k}")))
            };
            let field_num = |k: &str| {
                e.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(&format!("numeric field {k}")))
            };
            let ph = field_str("ph")?;
            let mut args = Vec::new();
            if let Some(pairs) = e.get("args").and_then(Json::as_obj) {
                for (k, v) in pairs {
                    args.push((
                        k.clone(),
                        v.as_str().ok_or_else(|| bad("string arg"))?.to_string(),
                    ));
                }
            }
            out.push(TraceEvent {
                name: field_str("name")?,
                cat: field_str("cat")?,
                ph: ph.chars().next().ok_or_else(|| bad("a phase char"))?,
                ts: field_num("ts")?,
                dur: e.get("dur").and_then(Json::as_f64),
                id: e.get("id").and_then(Json::as_f64).map(|v| v as u64),
                pid: field_num("pid")? as u64,
                tid: field_num("tid")? as u64,
                args,
            });
        }
        Ok(ChromeTrace { events: out })
    }

    /// Counts events of one phase (`'i'`, `'X'`, `'M'`).
    pub fn count_phase(&self, ph: char) -> usize {
        self.events.iter().filter(|e| e.ph == ph).count()
    }

    /// Returns `true` if any instant event carries `stage` as its name.
    pub fn has_stage(&self, stage: Stage) -> bool {
        self.events
            .iter()
            .any(|e| e.ph == 'i' && e.name == stage.name())
    }
}

fn us(t: publishing_sim::time::SimTime) -> f64 {
    t.as_nanos() as f64 / 1_000.0
}

/// Builds a trace from named component span logs (e.g. `node 0 kernel`,
/// `shard 1 recorder`), in the deterministic order the caller supplies.
pub fn from_spans(components: &[(String, &SpanLog)]) -> ChromeTrace {
    let mut events = Vec::new();
    for (pid, (name, _)) in components.iter().enumerate() {
        events.push(TraceEvent {
            name: "process_name".into(),
            cat: "__metadata".into(),
            ph: 'M',
            ts: 0.0,
            dur: None,
            id: None,
            pid: pid as u64,
            tid: 0,
            args: vec![("name".into(), name.clone())],
        });
    }
    let lifecycle_pid = components.len() as u64;
    events.push(TraceEvent {
        name: "process_name".into(),
        cat: "__metadata".into(),
        ph: 'M',
        ts: 0.0,
        dur: None,
        id: None,
        pid: lifecycle_pid,
        tid: 0,
        args: vec![("name".into(), "message lifecycles".into())],
    });

    for (pid, (_, log)) in components.iter().enumerate() {
        for e in log.events() {
            events.push(TraceEvent {
                name: e.stage.name().into(),
                cat: "lifecycle".into(),
                ph: 'i',
                ts: us(e.at),
                dur: None,
                id: None,
                pid: pid as u64,
                tid: e.subject,
                args: vec![
                    ("msg".into(), e.key.to_string()),
                    ("aux".into(), e.aux.to_string()),
                ],
            });
        }
    }

    // One slice per stage gap; each message gets its own three-row band
    // so overlapping gaps never have to nest.
    let spans = assemble(components.iter().map(|(_, l)| *l));
    for (lane, (key, span)) in spans.iter().enumerate() {
        let gaps = [
            (0u64, "publish→capture", Stage::Publish, Stage::Capture),
            (1, "capture→sequence", Stage::Capture, Stage::Sequence),
            (2, "publish→deliver", Stage::Publish, Stage::Deliver),
        ];
        for (row, name, from, to) in gaps {
            let (Some(a), Some(b)) = (span.first(from), span.first(to)) else {
                continue;
            };
            if b < a {
                continue;
            }
            events.push(TraceEvent {
                name: name.into(),
                cat: "gap".into(),
                ph: 'X',
                ts: us(a),
                dur: Some(us(b) - us(a)),
                id: None,
                pid: lifecycle_pid,
                tid: lane as u64 * 3 + row,
                args: vec![("msg".into(), key.to_string())],
            });
        }
    }

    // Causal arrows. Locate each flow endpoint on the component lane
    // that recorded it, so the arrow crosses lanes the way the message
    // crossed components. Flow ids are assigned in emission order,
    // which is deterministic (span keys iterate in `BTreeMap` order,
    // suppressions in component-then-recording order).
    struct Endpoint {
        pid: u64,
        tid: u64,
        at: SimTime,
    }
    let mut first_publish: BTreeMap<MsgKey, Endpoint> = BTreeMap::new();
    let mut first_deliver: BTreeMap<MsgKey, Endpoint> = BTreeMap::new();
    let mut replays_by_reader: BTreeMap<u64, Vec<Endpoint>> = BTreeMap::new();
    let mut suppresses: Vec<(MsgKey, Endpoint)> = Vec::new();
    for (pid, (_, log)) in components.iter().enumerate() {
        for e in log.events() {
            let ep = || Endpoint {
                pid: pid as u64,
                tid: e.subject,
                at: e.at,
            };
            match e.stage {
                Stage::Publish => {
                    first_publish.entry(e.key).or_insert_with(ep);
                }
                Stage::Deliver => {
                    let cur = first_deliver.entry(e.key).or_insert_with(ep);
                    if e.at < cur.at {
                        *cur = ep();
                    }
                }
                Stage::Replay => replays_by_reader.entry(e.subject).or_default().push(ep()),
                Stage::Suppress => suppresses.push((e.key, ep())),
                _ => {}
            }
        }
    }
    for v in replays_by_reader.values_mut() {
        v.sort_by_key(|ep| ep.at);
    }
    let mut flow_id = 0u64;
    let mut arrow = |events: &mut Vec<TraceEvent>, name: &str, from: &Endpoint, to: &Endpoint| {
        if to.at < from.at {
            return;
        }
        for (ph, ep) in [('s', from), ('f', to)] {
            events.push(TraceEvent {
                name: name.into(),
                cat: "flow".into(),
                ph,
                ts: us(ep.at),
                dur: None,
                id: Some(flow_id),
                pid: ep.pid,
                tid: ep.tid,
                args: Vec::new(),
            });
        }
        flow_id += 1;
    };
    for (key, publish) in &first_publish {
        if let Some(deliver) = first_deliver.get(key) {
            arrow(&mut events, "send→deliver", publish, deliver);
        }
    }
    for (key, sup) in &suppresses {
        // The latest replay into the suppressed message's sender that
        // precedes the suppression — the same pairing the causal graph's
        // ReplaySuppress edge uses.
        if let Some(replays) = replays_by_reader.get(&key.sender) {
            let before = replays.partition_point(|r| r.at <= sup.at);
            if before > 0 {
                arrow(&mut events, "replay→suppress", &replays[before - 1], sup);
            }
        }
    }
    ChromeTrace { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_obs::span::MsgKey;
    use publishing_sim::time::SimTime;

    fn sample_logs() -> (SpanLog, SpanLog) {
        let mut kernel = SpanLog::new(64);
        let mut recorder = SpanLog::new(64);
        let k = MsgKey { sender: 1, seq: 0 };
        kernel.record(SimTime::from_micros(100), k, Stage::Publish, 2, 11);
        recorder.record(SimTime::from_micros(150), k, Stage::Capture, 2, 0);
        recorder.record(SimTime::from_micros(250), k, Stage::Sequence, 2, 0);
        kernel.record(SimTime::from_micros(400), k, Stage::Deliver, 2, 0);
        (kernel, recorder)
    }

    #[test]
    fn export_names_components_and_emits_gap_slices() {
        let (kernel, recorder) = sample_logs();
        let t = from_spans(&[
            ("node 0 kernel".into(), &kernel),
            ("recorder".into(), &recorder),
        ]);
        // 3 metadata lanes (2 components + lifecycle process).
        assert_eq!(t.count_phase('M'), 3);
        assert_eq!(t.count_phase('i'), 4);
        assert_eq!(t.count_phase('X'), 3);
        assert!(t.has_stage(Stage::Publish));
        assert!(t.has_stage(Stage::Deliver));
        let slice = t
            .events
            .iter()
            .find(|e| e.ph == 'X' && e.name == "publish→deliver")
            .expect("deliver slice");
        assert_eq!(slice.ts, 100.0);
        assert_eq!(slice.dur, Some(300.0));
    }

    #[test]
    fn flow_events_pair_send_deliver_and_replay_suppress() {
        let (mut kernel, mut recorder) = sample_logs();
        // Process 2 crashes; k is replayed into it, and its own answer
        // (sender 2) is regenerated and suppressed.
        let m = MsgKey { sender: 2, seq: 0 };
        recorder.record(
            SimTime::from_micros(900),
            MsgKey { sender: 1, seq: 0 },
            Stage::Replay,
            2,
            0,
        );
        kernel.record(SimTime::from_micros(950), m, Stage::Suppress, 1, 0);
        let t = from_spans(&[("k".into(), &kernel), ("r".into(), &recorder)]);
        assert_eq!(t.count_phase('s'), 2);
        assert_eq!(t.count_phase('f'), 2);
        let starts: Vec<&TraceEvent> = t.events.iter().filter(|e| e.ph == 's').collect();
        let finishes: Vec<&TraceEvent> = t.events.iter().filter(|e| e.ph == 'f').collect();
        // Each start pairs with a finish by id, never earlier in time.
        for s in &starts {
            let f = finishes
                .iter()
                .find(|f| f.id == s.id)
                .expect("paired finish");
            assert_eq!(f.name, s.name);
            assert!(f.ts >= s.ts);
        }
        let sd = starts.iter().find(|e| e.name == "send→deliver").unwrap();
        assert_eq!(sd.ts, 100.0); // at the publish
        let rs = starts.iter().find(|e| e.name == "replay→suppress").unwrap();
        assert_eq!(rs.ts, 900.0); // at the replay
                                  // The serialized form carries the binding point on finishes.
        assert!(t.to_json().contains("\"bp\":\"e\""));
    }

    #[test]
    fn trace_json_is_byte_deterministic() {
        let (kernel, recorder) = sample_logs();
        let a = from_spans(&[("k".into(), &kernel), ("r".into(), &recorder)]).to_json();
        let b = from_spans(&[("k".into(), &kernel), ("r".into(), &recorder)]).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn json_round_trip_is_lossless_and_stable() {
        let (kernel, recorder) = sample_logs();
        let t = from_spans(&[("k".into(), &kernel), ("r".into(), &recorder)]);
        let text = t.to_json();
        let back = ChromeTrace::from_json(&text).expect("parses");
        assert_eq!(back, t);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn document_shape_is_trace_event_format() {
        let t = from_spans(&[]);
        let doc = parse(&t.to_json()).unwrap();
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        assert!(doc.get("traceEvents").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn rejects_non_trace_documents() {
        assert!(ChromeTrace::from_json("{\"nope\":1}").is_err());
        assert!(ChromeTrace::from_json("[]").is_err());
        assert!(ChromeTrace::from_json("not json").is_err());
    }
}
