//! The causal graph's reference builder, and the comparison that holds
//! the library's graph to it.
//!
//! [`RefGraph`] is the happens-before builder as it was before the graph
//! went flat, kept whole with the queries that read its structure
//! (`validate`, `ancestors`, the binding predecessor behind `explain` and
//! `critical_path`, `to_dot`, `divergence_diff`). The flat builder must
//! give the same nodes, the same edges in the same insertion order and
//! the same answers, byte for byte: [`assert_matches_reference`] checks
//! all of them on one set of event lists.
//!
//! Included by path from more than one test crate (`obs`'s generated
//! lists, `chaos`'s generated schedules), each of which uses part of it.

use publishing_obs::causal::{
    divergence_diff as flat_divergence_diff, stage_category, CausalGraph, CriticalPath, Divergence,
    Edge, EdgeKind, Explanation, Hop, Segment,
};
use publishing_obs::span::{MsgKey, SpanEvent, Stage};
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Builds `lists` with the library's graph and with [`RefGraph`], and
/// panics on the first answer they disagree on: node order and logs,
/// edges in insertion order, `validate`, `to_dot`, `explain` for every
/// key, `ancestors` of a spread of nodes, `critical_path` over windows
/// opened at every checkpoint, replay, election and suppression instant
/// (per subject too), and `divergence_diff` against the same lists less
/// one event and with one event changed.
pub fn assert_matches_reference(lists: &[Vec<SpanEvent>]) {
    let g = CausalGraph::from_event_lists(lists);
    let r = RefGraph::from_event_lists(lists);
    assert_eq!(g.events(), r.events(), "node order");
    for i in 0..g.len() {
        assert_eq!(g.log_of(i), r.log_of(i), "log of node {i}");
    }
    assert_eq!(g.edges(), r.edges(), "edges, in insertion order");
    assert_eq!(g.validate(), r.validate());
    assert_eq!(g.to_dot(), r.to_dot());

    let keys: BTreeSet<MsgKey> = g.events().iter().map(|e| e.key).collect();
    for key in keys {
        assert_eq!(
            format!("{:?}", g.explain(key)),
            format!("{:?}", r.explain(key)),
            "explain {key}"
        );
    }
    for i in (0..g.len()).step_by(g.len() / 16 + 1) {
        assert_eq!(g.ancestors(i), r.ancestors(i), "ancestors of node {i}");
    }

    let Some(last) = g.events().last().map(|e| e.at) else {
        return;
    };
    let crashes: BTreeSet<SimTime> = g
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.stage,
                Stage::Checkpoint | Stage::Replay | Stage::Elect | Stage::Suppress
            )
        })
        .map(|e| e.at)
        .chain([g.events()[0].at])
        .collect();
    let subjects: BTreeSet<u64> = g
        .events()
        .iter()
        .filter(|e| e.stage == Stage::Replay)
        .map(|e| e.subject)
        .collect();
    for &crash in crashes.iter().step_by(crashes.len() / 8 + 1) {
        for subject in [None].into_iter().chain(subjects.iter().copied().map(Some)) {
            assert_eq!(
                format!("{:?}", g.critical_path(crash, last, subject)),
                format!("{:?}", r.critical_path(crash, last, subject)),
                "critical path from {crash:?} for {subject:?}"
            );
        }
    }

    let longest = (0..lists.len())
        .max_by_key(|&l| lists[l].len())
        .expect("a non-empty graph has a log");
    let mid = lists[longest].len() / 2;
    let mut less = lists.to_vec();
    less[longest].remove(mid);
    let mut changed = lists.to_vec();
    changed[longest][mid].aux += 1;
    for other in [less, changed] {
        let (g2, r2) = (
            CausalGraph::from_event_lists(&other),
            RefGraph::from_event_lists(&other),
        );
        for (a, b, ra, rb) in [(&g, &g2, &r, &r2), (&g2, &g, &r2, &r)] {
            assert_eq!(
                format!("{:?}", flat_divergence_diff(a, b)),
                format!("{:?}", divergence_diff(ra, rb)),
                "divergence"
            );
        }
    }
}

/// The happens-before DAG as the library built it before its graph went
/// flat: one `Vec` of edge ids per node each way, `BTreeMap` groupings
/// and a `BTreeSet` of the edges seen.
#[derive(Debug, Clone, Default)]
pub struct RefGraph {
    nodes: Vec<SpanEvent>,
    log_of: Vec<u32>,
    edges: Vec<Edge>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl RefGraph {
    /// Builds the graph from per-log event lists (one list per component
    /// log, each in recording order). This is the seam the chaos engine
    /// uses: a baseline's events can be captured as plain vectors and
    /// diffed against a later run without holding the original world.
    pub fn from_event_lists(lists: &[Vec<SpanEvent>]) -> RefGraph {
        // Total node order: virtual time, then log, then the log's own
        // monotone seq. Edges are only added forward in this order, so
        // acyclicity holds by construction and ambiguous same-instant
        // cross-log orderings are conservatively dropped.
        let mut tagged: Vec<(u32, SpanEvent)> = Vec::new();
        for (li, list) in lists.iter().enumerate() {
            for e in list {
                tagged.push((li as u32, *e));
            }
        }
        tagged.sort_by_key(|(li, e)| (e.at, *li, e.seq));
        let nodes: Vec<SpanEvent> = tagged.iter().map(|(_, e)| *e).collect();
        let log_of: Vec<u32> = tagged.iter().map(|(li, _)| *li).collect();

        let mut g = RefGraph {
            preds: vec![Vec::new(); nodes.len()],
            succs: vec![Vec::new(); nodes.len()],
            nodes,
            log_of,
            edges: Vec::new(),
        };

        // Group node indices (already in node order) by message key, by
        // subject-within-log, and publishes by sender.
        let mut by_key: BTreeMap<MsgKey, Vec<usize>> = BTreeMap::new();
        let mut by_log_subject: BTreeMap<(u32, u64), Vec<usize>> = BTreeMap::new();
        let mut publishes_by_sender: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, e) in g.nodes.iter().enumerate() {
            by_key.entry(e.key).or_default().push(i);
            by_log_subject
                .entry((g.log_of[i], e.subject))
                .or_default()
                .push(i);
            if e.stage == Stage::Publish {
                publishes_by_sender.entry(e.key.sender).or_default().push(i);
            }
        }

        let mut seen: BTreeSet<(usize, usize, u8)> = BTreeSet::new();
        let mut add = |g: &mut RefGraph, from: usize, to: usize, kind: EdgeKind| {
            if from >= to || !seen.insert((from, to, kind as u8)) {
                return;
            }
            let ei = g.edges.len();
            g.edges.push(Edge {
                from: from as u32,
                to: to as u32,
                kind,
            });
            g.preds[to].push(ei);
            g.succs[from].push(ei);
        };

        // Per-component program order, per subject process.
        for idxs in by_log_subject.values() {
            for w in idxs.windows(2) {
                add(&mut g, w[0], w[1], EdgeKind::ProgramOrder);
            }
        }

        // A sender's send order over its publishes.
        for idxs in publishes_by_sender.values_mut() {
            idxs.sort_by_key(|&i| (g.nodes[i].key.seq, i));
            for w in idxs.windows(2) {
                add(&mut g, w[0], w[1], EdgeKind::SenderOrder);
            }
        }

        // Per-message lifecycle edges.
        for idxs in by_key.values() {
            let first_of = |stage: Stage| idxs.iter().copied().find(|&i| g.nodes[i].stage == stage);
            let publish = first_of(Stage::Publish);
            let capture = first_of(Stage::Capture);
            let sequence = first_of(Stage::Sequence);
            if let (Some(p), Some(c)) = (publish, capture) {
                add(&mut g, p, c, EdgeKind::SendCapture);
            }
            if let (Some(c), Some(s)) = (capture, sequence) {
                add(&mut g, c, s, EdgeKind::CaptureSequence);
            }
            for &i in idxs {
                match g.nodes[i].stage {
                    Stage::Deliver => {
                        if let Some(s) = sequence {
                            add(&mut g, s, i, EdgeKind::SequenceDeliver);
                        }
                    }
                    Stage::Replay => {
                        if let Some(s) = sequence {
                            add(&mut g, s, i, EdgeKind::SequenceReplay);
                        }
                        // The pre-crash read the replay reproduces: the
                        // first delivery of this message at the same read
                        // index to the same subject.
                        let (subject, read_idx) = (g.nodes[i].subject, g.nodes[i].aux);
                        if let Some(d) = idxs.iter().copied().find(|&j| {
                            let n = &g.nodes[j];
                            n.stage == Stage::Deliver && n.subject == subject && n.aux == read_idx
                        }) {
                            add(&mut g, d, i, EdgeKind::DeliverReplay);
                        }
                    }
                    Stage::Suppress => {
                        if let Some(p) = publish {
                            add(&mut g, p, i, EdgeKind::PublishSuppress);
                        }
                    }
                    _ => {}
                }
            }
        }

        // Checkpoint floors: the latest durable checkpoint for a subject
        // happens-before each later replay of that subject (it decided
        // where the replay starts).
        let mut by_subject: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, e) in g.nodes.iter().enumerate() {
            if matches!(e.stage, Stage::Checkpoint | Stage::Replay) {
                by_subject.entry(e.subject).or_default().push(i);
            }
        }
        for idxs in by_subject.values() {
            let mut floor: Option<usize> = None;
            for &i in idxs {
                match g.nodes[i].stage {
                    Stage::Checkpoint => floor = Some(i),
                    Stage::Replay => {
                        if let Some(c) = floor {
                            add(&mut g, c, i, EdgeKind::CheckpointFloor);
                        }
                    }
                    _ => {}
                }
            }
        }

        // Election gates: after a quorum failover, every arrival the new
        // leader sequences waited on the election that restored a leader
        // in that replica's log, and every replay a kernel receives
        // waited on the group's current leader existing at all (recovery
        // is leader-driven), so link the latest same-log election to
        // subsequent sequencing and the latest election anywhere to
        // subsequent replays. The critical path can then attribute
        // post-failover recovery time to the leader change.
        let mut last_elect: BTreeMap<u32, usize> = BTreeMap::new();
        let mut last_elect_any: Option<usize> = None;
        for i in 0..g.nodes.len() {
            match g.nodes[i].stage {
                Stage::Elect => {
                    last_elect.insert(g.log_of[i], i);
                    last_elect_any = Some(i);
                }
                Stage::Sequence => {
                    if let Some(&e) = last_elect.get(&g.log_of[i]) {
                        add(&mut g, e, i, EdgeKind::ElectGate);
                    }
                }
                Stage::Replay => {
                    if let Some(e) = last_elect_any {
                        add(&mut g, e, i, EdgeKind::ElectGate);
                    }
                }
                _ => {}
            }
        }

        // A recovering process's suppressions are driven by its replay:
        // the replayed reads made the process regenerate its sends, and
        // the §4.7 watermark cut off the resend. Link the latest replay
        // *into* the suppressed message's sender.
        let mut replays_by_reader: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, e) in g.nodes.iter().enumerate() {
            if e.stage == Stage::Replay {
                replays_by_reader.entry(e.subject).or_default().push(i);
            }
        }
        for i in 0..g.nodes.len() {
            if g.nodes[i].stage != Stage::Suppress {
                continue;
            }
            if let Some(replays) = replays_by_reader.get(&g.nodes[i].key.sender) {
                let before = replays.partition_point(|&r| r < i);
                if before > 0 {
                    let r = replays[before - 1];
                    add(&mut g, r, i, EdgeKind::ReplaySuppress);
                }
            }
        }

        g
    }

    /// The events, in node order (the indices every query speaks in).
    pub fn events(&self) -> &[SpanEvent] {
        &self.nodes
    }

    /// The happens-before edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The (caller-order) log index a node was recorded by.
    pub fn log_of(&self, node: usize) -> u32 {
        self.log_of[node]
    }

    /// Checks the structural invariants: every edge points forward in
    /// node order, node timestamps are non-decreasing along every edge,
    /// and the graph is acyclic (implied by the first check, verified
    /// independently by a Kahn pass).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, described.
    pub fn validate(&self) -> Result<(), String> {
        for (i, e) in self.edges.iter().enumerate() {
            if e.from >= e.to {
                return Err(format!("edge {i} not forward: {} -> {}", e.from, e.to));
            }
            let (from, to) = (&self.nodes[e.from as usize], &self.nodes[e.to as usize]);
            if from.at > to.at {
                return Err(format!(
                    "edge {i} ({}) goes back in time: {} -> {}",
                    e.kind.name(),
                    from.at,
                    to.at
                ));
            }
        }
        for w in self.nodes.windows(2) {
            if w[0].at > w[1].at {
                return Err("node order not time-sorted".into());
            }
        }
        // Kahn's algorithm: every node must be emitted.
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: VecDeque<usize> = (0..self.nodes.len()).filter(|&i| indeg[i] == 0).collect();
        let mut emitted = 0usize;
        while let Some(i) = queue.pop_front() {
            emitted += 1;
            for &ei in &self.succs[i] {
                let t = self.edges[ei].to as usize;
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        if emitted != self.nodes.len() {
            return Err(format!(
                "cycle: only {emitted} of {} nodes topologically ordered",
                self.nodes.len()
            ));
        }
        Ok(())
    }

    /// The causal ancestor cone of a node (exclusive of the node).
    pub fn ancestors(&self, node: usize) -> BTreeSet<usize> {
        let mut cone = BTreeSet::new();
        let mut queue = VecDeque::from([node]);
        while let Some(i) = queue.pop_front() {
            for &ei in &self.preds[i] {
                let f = self.edges[ei].from as usize;
                if cone.insert(f) {
                    queue.push_back(f);
                }
            }
        }
        cone
    }

    /// The binding predecessor of a node: the incoming edge whose source
    /// is latest in node order — the hop that actually delayed the node.
    fn binding_pred(&self, node: usize) -> Option<&Edge> {
        self.preds[node]
            .iter()
            .map(|&ei| &self.edges[ei])
            .max_by_key(|e| e.from)
    }

    /// Explains one message: the causal chain (binding predecessors,
    /// walked back to a root) that led to its last delivery, plus the
    /// size of its full ancestor cone.
    ///
    /// Returns `None` when no event for `key` was retained.
    pub fn explain(&self, key: MsgKey) -> Option<Explanation> {
        let target = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, e)| e.key == key)
            .max_by_key(|&(i, e)| (e.stage == Stage::Deliver, i))
            .map(|(i, _)| i)?;
        let cone_size = self.ancestors(target).len();
        let mut rev: Vec<Hop> = Vec::new();
        let mut cur = target;
        loop {
            match self.binding_pred(cur).map(|e| (e.from as usize, e.kind)) {
                Some((from, kind)) => {
                    rev.push(Hop {
                        event: self.nodes[cur],
                        via: Some(kind),
                        slack: self.nodes[cur].at.saturating_since(self.nodes[from].at),
                    });
                    cur = from;
                }
                None => {
                    rev.push(Hop {
                        event: self.nodes[cur],
                        via: None,
                        slack: SimDuration::ZERO,
                    });
                    break;
                }
            }
        }
        rev.reverse();
        Some(Explanation {
            key,
            target: self.nodes[target],
            cone_size,
            chain: rev,
        })
    }

    /// Computes the recovery critical path: the binding chain of events
    /// inside the window `[crash_at, converged_at]`. The opening segment
    /// (crash → first chain event, covering detection and the work that
    /// produced that event) is attributed to the first event's stage;
    /// a closing `commit` segment (last chain event → convergence)
    /// covers the manager's completion bookkeeping. Segment durations
    /// therefore telescope to exactly `converged_at - crash_at`.
    ///
    /// `subject`, when given, anchors the walk at that process's latest
    /// in-window event; otherwise the latest in-window event overall.
    ///
    /// Returns `None` when the window is empty or inverted.
    pub fn critical_path(
        &self,
        crash_at: SimTime,
        converged_at: SimTime,
        subject: Option<u64>,
    ) -> Option<CriticalPath> {
        if converged_at < crash_at {
            return None;
        }
        let anchor = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, e)| e.at >= crash_at && e.at <= converged_at)
            .filter(|(_, e)| subject.map(|s| e.subject == s).unwrap_or(true))
            .map(|(i, _)| i)
            .next_back()?;

        // Walk binding predecessors while they stay inside the window.
        let mut path = vec![anchor];
        let mut kinds: Vec<EdgeKind> = Vec::new();
        let mut cur = anchor;
        while let Some(e) = self.binding_pred(cur) {
            let from = e.from as usize;
            if self.nodes[from].at < crash_at {
                break;
            }
            path.push(from);
            kinds.push(e.kind);
            cur = from;
        }
        path.reverse();
        kinds.reverse();

        let mut segments = Vec::new();
        let first = &self.nodes[path[0]];
        segments.push(Segment {
            category: stage_category(first.stage),
            kind: None,
            from: crash_at,
            to: first.at,
            label: format!("crash → {} {}", first.stage.name(), first.key),
        });
        for (w, kind) in path.windows(2).zip(kinds.iter()) {
            let (a, b) = (&self.nodes[w[0]], &self.nodes[w[1]]);
            segments.push(Segment {
                category: stage_category(b.stage),
                kind: Some(*kind),
                from: a.at,
                to: b.at,
                label: format!(
                    "{} {} → {} {} [{}]",
                    a.stage.name(),
                    a.key,
                    b.stage.name(),
                    b.key,
                    kind.name()
                ),
            });
        }
        let last = &self.nodes[*path.last().expect("path non-empty")];
        segments.push(Segment {
            category: "commit",
            kind: None,
            from: last.at,
            to: converged_at,
            label: format!("{} {} → converged", last.stage.name(), last.key),
        });
        Some(CriticalPath {
            crash_at,
            converged_at,
            segments,
        })
    }

    /// Renders the graph as deterministic Graphviz DOT (nodes in node
    /// order, edges in insertion order re-sorted by `(from, to, kind)`).
    pub fn to_dot(&self) -> String {
        let mut s = String::from(
            "digraph happens_before {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n",
        );
        for (i, e) in self.nodes.iter().enumerate() {
            s.push_str(&format!(
                "  n{} [label=\"{} {}\\n@{:.3}ms subj={}\"];\n",
                i,
                e.stage.name(),
                e.key,
                e.at.as_millis_f64(),
                e.subject
            ));
        }
        let mut edges: Vec<&Edge> = self.edges.iter().collect();
        edges.sort_by_key(|e| (e.from, e.to, e.kind as u8));
        for e in edges {
            s.push_str(&format!(
                "  n{} -> n{} [color={}, label=\"{}\", fontsize=8];\n",
                e.from,
                e.to,
                dot_color(e.kind),
                e.kind.name()
            ));
        }
        s.push_str("}\n");
        s
    }
}

fn dot_color(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::SendCapture => "black",
        EdgeKind::CaptureSequence => "blue",
        EdgeKind::SequenceDeliver => "forestgreen",
        EdgeKind::ProgramOrder => "gray60",
        EdgeKind::SenderOrder => "gray30",
        EdgeKind::SequenceReplay => "darkorange",
        EdgeKind::DeliverReplay => "red",
        EdgeKind::PublishSuppress => "purple",
        EdgeKind::CheckpointFloor => "brown",
        EdgeKind::ReplaySuppress => "crimson",
        EdgeKind::ElectGate => "goldenrod",
    }
}

/// Projects an event to the fields two same-seed runs must agree on.
/// The per-log emission `seq` is excluded: it numbers a log's retained
/// ring position only after eviction, while everything observable —
/// time, message, stage, subject, stage detail — must match exactly.
fn canon(e: &SpanEvent) -> (SimTime, MsgKey, Stage, u64, u64) {
    (e.at, e.key, e.stage, e.subject, e.aux)
}

/// Aligns two runs' canonical event streams (node order) and reports
/// the first divergent event with its causal ancestors, or `None` when
/// the streams agree completely.
pub fn divergence_diff(baseline: &RefGraph, run: &RefGraph) -> Option<Divergence> {
    let b = baseline.events();
    let r = run.events();
    let n = b.len().max(r.len());
    for i in 0..n {
        let want = b.get(i);
        let have = r.get(i);
        if let (Some(w), Some(h)) = (want, have) {
            if canon(w) == canon(h) {
                continue;
            }
        }
        // Divergent (or one stream ended). Pull the cone from the run's
        // graph when it still has an event here, else the baseline's.
        let g = if have.is_some() { run } else { baseline };
        let ancestors: Vec<SpanEvent> = g.ancestors(i).into_iter().map(|j| g.events()[j]).collect();
        return Some(Divergence {
            index: i,
            want: want.copied(),
            have: have.copied(),
            ancestors,
        });
    }
    None
}
