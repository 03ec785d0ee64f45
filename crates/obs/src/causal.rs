//! The causal explorer: a happens-before DAG over the published log.
//!
//! The paper's recovery argument is causal — a replayed process behaves
//! identically because every message it reads is re-fed in original
//! receive order — so debugging the system means asking causal
//! questions: *why* was this message delivered when it was, *where* did
//! a recovery's time actually go, and *which event first diverged*
//! between an original run and its replay. This module builds the
//! happens-before graph from the same [`SpanLog`]s every component
//! already records into, then answers those three questions:
//!
//! - [`CausalGraph::explain`]: the full causal ancestor chain behind one
//!   message's delivery, with virtual-time slack per hop;
//! - [`CausalGraph::critical_path`]: the binding chain of events from a
//!   crash instant to convergence, each segment attributed to a recovery
//!   stage (checkpoint load, replay, suppression, re-sequencing);
//! - [`divergence_diff`]: the first event where two runs' canonical
//!   event streams disagree, with the divergent event's causal cone.
//!
//! Determinism: node order is the total order `(at, log, seq)` — virtual
//! time, then the caller's (stable) log order, then the log's own
//! monotone emission number — and edges are only ever added *forward* in
//! that order, so the graph is acyclic by construction and two runs of
//! the same seed produce byte-identical DOT and flow-event output.

use crate::registry::MetricsRegistry;
use crate::span::{MsgKey, SpanEvent, SpanLog, Stage};
use publishing_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Why one event happens-before another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EdgeKind {
    /// Publish at the sender → capture at the recorder (frame on the
    /// medium).
    SendCapture = 0,
    /// Capture → arrival sequencing inside the recorder (the message
    /// becomes *published*).
    CaptureSequence = 1,
    /// Sequencing → a read of the message at its destination.
    SequenceDeliver = 2,
    /// Adjacent events concerning the same subject process in one
    /// component log (that component's program order).
    ProgramOrder = 3,
    /// A sender's consecutive publishes (send order).
    SenderOrder = 4,
    /// Sequencing → a replay of the message from the published log.
    SequenceReplay = 5,
    /// The original pre-crash read → its replay at the same read index.
    DeliverReplay = 6,
    /// Publish → the §4.7 suppression of its regenerated resend.
    PublishSuppress = 7,
    /// A durable checkpoint → the first replays it set the floor for.
    CheckpointFloor = 8,
    /// The latest replay *into* a recovering process → a suppression of
    /// that process's regenerated resend (the replay drove the sender to
    /// regenerate the message the watermark then cut off).
    ReplaySuppress = 9,
    /// A quorum election win → the sequencing/replay work the new leader
    /// then performed: everything the group sequences after a failover
    /// waited on the election that restored a leader.
    ElectGate = 10,
}

impl EdgeKind {
    /// Stable short name, used in rendered chains and DOT output.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::SendCapture => "send→capture",
            EdgeKind::CaptureSequence => "capture→sequence",
            EdgeKind::SequenceDeliver => "sequence→deliver",
            EdgeKind::ProgramOrder => "program-order",
            EdgeKind::SenderOrder => "sender-order",
            EdgeKind::SequenceReplay => "sequence→replay",
            EdgeKind::DeliverReplay => "deliver→replay",
            EdgeKind::PublishSuppress => "publish→suppress",
            EdgeKind::CheckpointFloor => "checkpoint-floor",
            EdgeKind::ReplaySuppress => "replay→suppress",
            EdgeKind::ElectGate => "elect-gate",
        }
    }

    fn dot_color(self) -> &'static str {
        match self {
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
}

/// One happens-before edge between two graph nodes (indices into
/// [`CausalGraph::events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source node index (always `< to`).
    pub from: u32,
    /// Target node index.
    pub to: u32,
    /// Why the source happens-before the target.
    pub kind: EdgeKind,
}

/// The happens-before DAG over every retained lifecycle event.
///
/// Stored flat: the events and their logs in node order, the edges in
/// insertion order, and each node's incoming edges as a
/// compressed-sparse-row run of edge ids (`pred_ids[pred_off[i] ..
/// pred_off[i + 1]]`, ascending, so in insertion order). Every query but
/// [`CausalGraph::validate`] walks edges backwards, and that one builds
/// its outgoing runs the same way. A graph is a fixed handful of
/// allocations whatever its size.
#[derive(Debug, Clone, Default)]
pub struct CausalGraph {
    nodes: Vec<SpanEvent>,
    log_of: Vec<u32>,
    edges: Vec<Edge>,
    pred_off: Vec<u32>,
    pred_ids: Vec<u32>,
}

impl CausalGraph {
    /// Builds the graph from component span logs. Callers must pass the
    /// logs in a stable order (node id, then shard index) — the same
    /// discipline [`crate::span::combined_fingerprint`] requires — so
    /// node order, DOT output, and query answers are deterministic.
    pub fn build<'a>(logs: impl IntoIterator<Item = &'a SpanLog>) -> CausalGraph {
        let logs: Vec<&SpanLog> = logs.into_iter().collect();
        let total = logs.iter().map(|l| l.retained()).sum();
        let mut nodes = Vec::with_capacity(total);
        let mut log_of = Vec::with_capacity(total);
        for (li, log) in logs.iter().enumerate() {
            nodes.extend(log.events());
            log_of.resize(nodes.len(), log_index(li));
        }
        CausalGraph::from_nodes(nodes, log_of)
    }

    /// Builds the graph from per-log event lists (one list per component
    /// log, each in recording order). This is the seam the chaos engine
    /// uses: a baseline's events can be captured as plain vectors and
    /// diffed against a later run without holding the original world.
    pub fn from_event_lists(lists: &[Vec<SpanEvent>]) -> CausalGraph {
        let total = lists.iter().map(Vec::len).sum();
        let mut nodes = Vec::with_capacity(total);
        let mut log_of = Vec::with_capacity(total);
        for (li, list) in lists.iter().enumerate() {
            nodes.extend_from_slice(list);
            log_of.resize(nodes.len(), log_index(li));
        }
        CausalGraph::from_nodes(nodes, log_of)
    }

    /// Builds the graph from every log's events, concatenated log after
    /// log, and the log each one came from.
    fn from_nodes(mut nodes: Vec<SpanEvent>, mut log_of: Vec<u32>) -> CausalGraph {
        let n = nodes.len();
        // Node ids, edge ids and CSR offsets are `u32`; the bound is at
        // least the node count. One scratch vector serves every sort.
        let bound = edge_bound(&nodes);
        assert!(
            u32::try_from(bound).is_ok(),
            "{n} events are too many for one causal graph"
        );
        let mut scratch: Vec<u32> = Vec::with_capacity(bound);

        // Total node order: virtual time, then log, then the log's own
        // monotone seq (then input position, which makes this unstable
        // sort the stable one). Edges are only added forward in this
        // order, so acyclicity holds by construction and ambiguous
        // same-instant cross-log orderings are conservatively dropped.
        scratch.extend(0..n as u32);
        scratch.sort_unstable_by_key(|&i| {
            let e = &nodes[i as usize];
            (e.at, log_of[i as usize], e.seq, i)
        });
        permute(&mut scratch, &mut nodes, &mut log_of);

        let mut g = CausalGraph {
            edges: Vec::with_capacity(bound),
            nodes,
            log_of,
            ..CausalGraph::default()
        };
        g.propose_edges(&mut scratch);
        dedup_keep_first(&mut g.edges, &mut scratch);
        drop(scratch);
        g.edges.shrink_to_fit();
        (g.pred_off, g.pred_ids) = csr(n, g.edges.iter().map(|e| e.to as usize));
        g
    }

    /// The incoming edges of `node`, in insertion order.
    fn preds(&self, node: usize) -> impl Iterator<Item = &Edge> {
        let run = self.pred_off[node] as usize..self.pred_off[node + 1] as usize;
        self.pred_ids[run].iter().map(|&e| &self.edges[e as usize])
    }

    /// Appends every edge family's edges to `self.edges`, family by
    /// family, each family's groups in key order and each group's nodes
    /// in node order. `scratch` (capacity at least the node count) holds
    /// one family's grouping at a time: node ids sorted by the group key,
    /// then by id, so a group is a run.
    fn propose_edges(&mut self, scratch: &mut Vec<u32>) {
        let nodes = &self.nodes;
        let log_of = &self.log_of;
        let edges = &mut self.edges;
        let node = |i: u32| &nodes[i as usize];
        let mut add = |from: u32, to: u32, kind: EdgeKind| {
            if from < to {
                edges.push(Edge { from, to, kind });
            }
        };
        let group = |scratch: &mut Vec<u32>, keep: fn(Stage) -> bool| {
            scratch.clear();
            scratch.extend((0..nodes.len() as u32).filter(|&i| keep(node(i).stage)));
        };

        // Per-component program order, per subject process.
        let lane = |i: u32| (log_of[i as usize], node(i).subject);
        group(scratch, |_| true);
        scratch.sort_unstable_by_key(|&i| (lane(i), i));
        for w in scratch.windows(2) {
            if lane(w[0]) == lane(w[1]) {
                add(w[0], w[1], EdgeKind::ProgramOrder);
            }
        }

        // A sender's send order over its publishes.
        group(scratch, |s| s == Stage::Publish);
        scratch.sort_unstable_by_key(|&i| (node(i).key.sender, node(i).key.seq, i));
        for w in scratch.windows(2) {
            if node(w[0]).key.sender == node(w[1]).key.sender {
                add(w[0], w[1], EdgeKind::SenderOrder);
            }
        }

        // Per-message lifecycle edges.
        group(scratch, |_| true);
        scratch.sort_unstable_by_key(|&i| (node(i).key, i));
        for run in scratch.chunk_by(|&a, &b| node(a).key == node(b).key) {
            let first_of = |stage: Stage| run.iter().copied().find(|&i| node(i).stage == stage);
            let publish = first_of(Stage::Publish);
            let capture = first_of(Stage::Capture);
            let sequence = first_of(Stage::Sequence);
            if let (Some(p), Some(c)) = (publish, capture) {
                add(p, c, EdgeKind::SendCapture);
            }
            if let (Some(c), Some(s)) = (capture, sequence) {
                add(c, s, EdgeKind::CaptureSequence);
            }
            for &i in run {
                match node(i).stage {
                    Stage::Deliver => {
                        if let Some(s) = sequence {
                            add(s, i, EdgeKind::SequenceDeliver);
                        }
                    }
                    Stage::Replay => {
                        if let Some(s) = sequence {
                            add(s, i, EdgeKind::SequenceReplay);
                        }
                        // The pre-crash read the replay reproduces: the
                        // first delivery of this message at the same read
                        // index to the same subject.
                        let (subject, read_idx) = (node(i).subject, node(i).aux);
                        if let Some(d) = run.iter().copied().find(|&j| {
                            let n = node(j);
                            n.stage == Stage::Deliver && n.subject == subject && n.aux == read_idx
                        }) {
                            add(d, i, EdgeKind::DeliverReplay);
                        }
                    }
                    Stage::Suppress => {
                        if let Some(p) = publish {
                            add(p, i, EdgeKind::PublishSuppress);
                        }
                    }
                    _ => {}
                }
            }
        }

        // Checkpoint floors: the latest durable checkpoint for a subject
        // happens-before each later replay of that subject (it decided
        // where the replay starts).
        group(scratch, |s| matches!(s, Stage::Checkpoint | Stage::Replay));
        scratch.sort_unstable_by_key(|&i| (node(i).subject, i));
        for run in scratch.chunk_by(|&a, &b| node(a).subject == node(b).subject) {
            let mut floor: Option<u32> = None;
            for &i in run {
                match node(i).stage {
                    Stage::Checkpoint => floor = Some(i),
                    Stage::Replay => {
                        if let Some(c) = floor {
                            add(c, i, EdgeKind::CheckpointFloor);
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
        // post-failover recovery time to the leader change. `scratch`
        // holds the latest election per log (`u32::MAX`: none yet).
        let logs = log_of.iter().max().map_or(0, |&l| l as usize + 1);
        scratch.clear();
        scratch.resize(logs, u32::MAX);
        let mut last_elect_any: Option<u32> = None;
        for i in 0..nodes.len() as u32 {
            let log = log_of[i as usize] as usize;
            match node(i).stage {
                Stage::Elect => {
                    scratch[log] = i;
                    last_elect_any = Some(i);
                }
                Stage::Sequence if scratch[log] != u32::MAX => {
                    add(scratch[log], i, EdgeKind::ElectGate);
                }
                Stage::Replay => {
                    if let Some(e) = last_elect_any {
                        add(e, i, EdgeKind::ElectGate);
                    }
                }
                _ => {}
            }
        }

        // A recovering process's suppressions are driven by its replay:
        // the replayed reads made the process regenerate its sends, and
        // the §4.7 watermark cut off the resend. Link the latest replay
        // *into* the suppressed message's sender.
        group(scratch, |s| s == Stage::Replay);
        scratch.sort_unstable_by_key(|&r| (node(r).subject, r));
        for i in 0..nodes.len() as u32 {
            if node(i).stage != Stage::Suppress {
                continue;
            }
            let sender = node(i).key.sender;
            let before = scratch.partition_point(|&r| (node(r).subject, r) < (sender, i));
            if let Some(&r) = scratch[..before].last() {
                if node(r).subject == sender {
                    add(r, i, EdgeKind::ReplaySuppress);
                }
            }
        }
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

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no events.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
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
        let mut indeg: Vec<u32> = self.pred_off.windows(2).map(|w| w[1] - w[0]).collect();
        let (succ_off, succ_ids) =
            csr(self.nodes.len(), self.edges.iter().map(|e| e.from as usize));
        let mut queue: VecDeque<usize> = (0..self.nodes.len()).filter(|&i| indeg[i] == 0).collect();
        let mut emitted = 0usize;
        while let Some(i) = queue.pop_front() {
            emitted += 1;
            let run = succ_off[i] as usize..succ_off[i + 1] as usize;
            for &ei in &succ_ids[run] {
                let t = self.edges[ei as usize].to as usize;
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
            for e in self.preds(i) {
                let from = e.from as usize;
                if cone.insert(from) {
                    queue.push_back(from);
                }
            }
        }
        cone
    }

    /// The binding predecessor of a node: the incoming edge whose source
    /// is latest in node order — the hop that actually delayed the node.
    /// Of several edges from that source, the last inserted binds.
    fn binding_pred(&self, node: usize) -> Option<&Edge> {
        self.preds(node).max_by_key(|e| e.from)
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
                e.kind.dot_color(),
                e.kind.name()
            ));
        }
        s.push_str("}\n");
        s
    }
}

/// A log's position in the caller's order, as a node's `log_of`.
fn log_index(li: usize) -> u32 {
    u32::try_from(li).expect("more span logs than u32 ids")
}

/// An upper bound on the edges [`CausalGraph::propose_edges`] adds,
/// counted by target: every node has at most one program-order
/// predecessor, plus what its stage's rules can give it.
fn edge_bound(nodes: &[SpanEvent]) -> usize {
    let by_stage = |stage| match stage {
        Stage::Publish => 1,                    // sender order
        Stage::Capture | Stage::Deliver => 1,   // send→capture, sequence→deliver
        Stage::Sequence | Stage::Suppress => 2, // + an election gate / replay→suppress
        Stage::Replay => 4,                     // sequence, delivery, checkpoint, election
        Stage::Checkpoint | Stage::Elect => 0,
    };
    nodes.iter().map(|e| 1 + by_stage(e.stage)).sum()
}

/// Reorders `nodes` and `log_of` in place so that position `k` holds
/// what position `perm[k]` held, following each cycle of `perm` once
/// (and leaving `perm` the identity).
fn permute(perm: &mut [u32], nodes: &mut [SpanEvent], log_of: &mut [u32]) {
    for start in 0..perm.len() {
        if perm[start] as usize == start {
            continue;
        }
        let held = (nodes[start], log_of[start]);
        let mut k = start;
        loop {
            let src = perm[k] as usize;
            perm[k] = k as u32;
            if src == start {
                (nodes[k], log_of[k]) = held;
                break;
            }
            nodes[k] = nodes[src];
            log_of[k] = log_of[src];
            k = src;
        }
    }
}

/// Drops every edge equal to an earlier one, keeping the first in
/// insertion order: edge ids sorted by `(edge, id)` put each edge's
/// copies in one run, first copy first. (No edge family proposes an
/// edge twice today; the pass makes that a property of the graph, not
/// of its rules.)
fn dedup_keep_first(edges: &mut Vec<Edge>, scratch: &mut Vec<u32>) {
    let key = |e: &Edge| (e.from, e.to, e.kind);
    scratch.clear();
    scratch.extend(0..edges.len() as u32);
    scratch.sort_unstable_by_key(|&i| (key(&edges[i as usize]), i));
    let mut run = None;
    for &i in scratch.iter() {
        let e = &mut edges[i as usize];
        if run == Some(key(e)) {
            // A proposed edge always points forward; this one now doesn't.
            e.to = e.from;
        } else {
            run = Some(key(e));
        }
    }
    edges.retain(|e| e.from < e.to);
}

/// Compressed sparse rows over `n` nodes: `ends` yields each edge's
/// endpoint in edge-id order, and node `v`'s edge ids are
/// `ids[off[v]..off[v + 1]]`, ascending.
fn csr(n: usize, ends: impl Iterator<Item = usize> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for v in ends.clone() {
        off[v + 1] += 1;
    }
    for v in 0..n {
        off[v + 1] += off[v];
    }
    let mut ids = vec![0u32; off[n] as usize];
    for (e, v) in ends.enumerate() {
        ids[off[v] as usize] = e as u32;
        off[v] += 1;
    }
    // Each `off[v]` now ends `v`'s run, which is where `v + 1`'s starts.
    off.copy_within(0..n, 1);
    off[0] = 0;
    (off, ids)
}

/// Maps a lifecycle stage to the recovery-stage category the critical
/// path attributes its segments to.
pub fn stage_category(stage: Stage) -> &'static str {
    match stage {
        Stage::Checkpoint => "checkpoint_load",
        Stage::Replay => "replay",
        Stage::Suppress => "suppression",
        Stage::Capture | Stage::Sequence => "re_sequencing",
        Stage::Publish | Stage::Deliver => "delivery",
        Stage::Elect => "election",
    }
}

/// One hop of an [`Explanation`] chain.
#[derive(Debug, Clone)]
pub struct Hop {
    /// The event at this hop.
    pub event: SpanEvent,
    /// The edge that leads *into* this event from the previous hop
    /// (`None` for the chain's root).
    pub via: Option<EdgeKind>,
    /// Virtual time between the previous hop and this event.
    pub slack: SimDuration,
}

/// The causal chain behind one message's delivery.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The message explained.
    pub key: MsgKey,
    /// The chain's target event (the last delivery, or last event).
    pub target: SpanEvent,
    /// Size of the full causal ancestor cone of the target.
    pub cone_size: usize,
    /// Root-to-target binding chain.
    pub chain: Vec<Hop>,
}

impl Explanation {
    /// Renders the chain for a terminal.
    pub fn render(&self) -> String {
        let mut s = format!(
            "explain {}: target {} @{:.3}ms subj={} (ancestor cone: {} events)\n",
            self.key,
            self.target.stage.name(),
            self.target.at.as_millis_f64(),
            self.target.subject,
            self.cone_size
        );
        for hop in &self.chain {
            match hop.via {
                None => s.push_str(&format!(
                    "  {:>12.3}ms  {} {} subj={}\n",
                    hop.event.at.as_millis_f64(),
                    hop.event.stage.name(),
                    hop.event.key,
                    hop.event.subject
                )),
                Some(kind) => s.push_str(&format!(
                    "  {:>12.3}ms  {} {} subj={}  [{} +{:.3}ms]\n",
                    hop.event.at.as_millis_f64(),
                    hop.event.stage.name(),
                    hop.event.key,
                    hop.event.subject,
                    kind.name(),
                    hop.slack.as_millis_f64()
                )),
            }
        }
        s
    }
}

/// One attributed segment of a recovery critical path.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Recovery-stage category ([`stage_category`], or the boundary
    /// categories `detect` / `commit`).
    pub category: &'static str,
    /// The happens-before edge this segment rode, when it is one.
    pub kind: Option<EdgeKind>,
    /// Segment start (virtual time).
    pub from: SimTime,
    /// Segment end (virtual time).
    pub to: SimTime,
    /// Human-readable description.
    pub label: String,
}

impl Segment {
    /// The segment's virtual-time extent.
    pub fn duration(&self) -> SimDuration {
        self.to.saturating_since(self.from)
    }
}

/// The attributed critical path of one crash/recovery window. Segments
/// telescope: they partition `[crash_at, converged_at]` exactly, so
/// [`CriticalPath::total`] always equals the measured recovery lag.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The crash instant anchoring the window.
    pub crash_at: SimTime,
    /// The convergence instant (last recovery completion).
    pub converged_at: SimTime,
    /// The attributed segments, in time order.
    pub segments: Vec<Segment>,
}

impl CriticalPath {
    /// Sum of segment durations — by construction, exactly the window.
    pub fn total(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration())
    }

    /// Per-category attribution, in category name order.
    pub fn by_stage(&self) -> BTreeMap<&'static str, SimDuration> {
        let mut out: BTreeMap<&'static str, SimDuration> = BTreeMap::new();
        for s in &self.segments {
            *out.entry(s.category).or_insert(SimDuration::ZERO) += s.duration();
        }
        out
    }

    /// The `n` longest segments, longest first (ties broken by time
    /// order, so the answer is deterministic).
    pub fn top_segments(&self, n: usize) -> Vec<&Segment> {
        let mut idx: Vec<usize> = (0..self.segments.len()).collect();
        idx.sort_by_key(|&i| (std::cmp::Reverse(self.segments[i].duration()), i));
        idx.into_iter().take(n).map(|i| &self.segments[i]).collect()
    }

    /// Files the attribution under `critical_path/...`.
    pub fn into_registry(&self, reg: &mut MetricsRegistry) {
        reg.gauge("critical_path/total_ms", self.total().as_millis_f64());
        reg.counter("critical_path/segments", self.segments.len() as u64);
        for (cat, d) in self.by_stage() {
            reg.gauge(format!("critical_path/{cat}_ms"), d.as_millis_f64());
        }
    }

    /// Renders the path for a terminal.
    pub fn render(&self) -> String {
        let total = self.total();
        let mut s = format!(
            "critical path {:.3}ms → {:.3}ms (total {:.3}ms, {} segments)\n",
            self.crash_at.as_millis_f64(),
            self.converged_at.as_millis_f64(),
            total.as_millis_f64(),
            self.segments.len()
        );
        for (cat, d) in self.by_stage() {
            let frac = if total == SimDuration::ZERO {
                0.0
            } else {
                d / total
            };
            s.push_str(&format!(
                "  {cat:<16} {:>12.3}ms ({:>5.1}%)\n",
                d.as_millis_f64(),
                frac * 100.0
            ));
        }
        s.push_str("  longest segments:\n");
        for seg in self.top_segments(3) {
            s.push_str(&format!(
                "    {:>12.3}ms  {:<16} {}\n",
                seg.duration().as_millis_f64(),
                seg.category,
                seg.label
            ));
        }
        s
    }
}

/// The first point where two runs' canonical event streams disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Position in node order where the streams first differ.
    pub index: usize,
    /// The baseline's event at that position (`None`: baseline ended).
    pub want: Option<SpanEvent>,
    /// The divergent run's event there (`None`: the run ended early).
    pub have: Option<SpanEvent>,
    /// Causal ancestors of the divergent event (from whichever graph
    /// still has an event at the divergence point), time-ordered.
    pub ancestors: Vec<SpanEvent>,
}

impl Divergence {
    /// Renders the pinpoint for a terminal.
    pub fn render(&self) -> String {
        let fmt = |e: &Option<SpanEvent>| match e {
            None => "<stream ended>".to_string(),
            Some(e) => format!(
                "{} {} subj={} aux={} @{:.3}ms",
                e.stage.name(),
                e.key,
                e.subject,
                e.aux,
                e.at.as_millis_f64()
            ),
        };
        let mut s = format!(
            "first divergence at event #{}:\n  baseline: {}\n  run:      {}\n",
            self.index,
            fmt(&self.want),
            fmt(&self.have)
        );
        if !self.ancestors.is_empty() {
            s.push_str("  causal ancestors of the divergent event:\n");
            for a in &self.ancestors {
                s.push_str(&format!(
                    "    {:>12.3}ms  {} {} subj={}\n",
                    a.at.as_millis_f64(),
                    a.stage.name(),
                    a.key,
                    a.subject
                ));
            }
        }
        s
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
pub fn divergence_diff(baseline: &CausalGraph, run: &CausalGraph) -> Option<Divergence> {
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

/// How one hop of a [`PathAlignment`] maps across the two paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopStatus {
    /// The same stage category appears on both paths: compare durations.
    Matched,
    /// Work only the baseline path did (the run skipped this stage).
    OnlyBaseline,
    /// Work only the run path did (a new stage appeared).
    OnlyRun,
}

impl HopStatus {
    /// Stable lowercase label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            HopStatus::Matched => "matched",
            HopStatus::OnlyBaseline => "only_baseline",
            HopStatus::OnlyRun => "only_run",
        }
    }
}

/// One aligned hop of two critical paths: a category-matched segment
/// pair with its slack delta, or a segment only one path has.
#[derive(Debug, Clone)]
pub struct AlignedHop {
    /// How the hop maps across the two paths.
    pub status: HopStatus,
    /// Recovery-stage category of the hop.
    pub category: &'static str,
    /// Duration on the baseline path, ms (0.0 for [`HopStatus::OnlyRun`]).
    pub baseline_ms: f64,
    /// Duration on the run path, ms (0.0 for [`HopStatus::OnlyBaseline`]).
    pub run_ms: f64,
    /// The segment's label (run side when present, else baseline side).
    pub label: String,
}

impl AlignedHop {
    /// Per-hop slack delta: run duration minus baseline duration.
    pub fn delta_ms(&self) -> f64 {
        self.run_ms - self.baseline_ms
    }
}

/// The full hop-by-hop alignment of two crash→convergence critical
/// paths: [`divergence_diff`] extended from first-divergence-only to a
/// total mapping. Two invariants hold by construction (and are pinned
/// by proptests):
///
/// - **totality** — every segment of both paths is consumed by exactly
///   one hop, so nothing truncation leaves behind is silently dropped;
/// - **telescoping** — hop deltas sum to exactly
///   `run.total() - baseline.total()`, because segment durations
///   already telescope to each path's window.
#[derive(Debug, Clone, Default)]
pub struct PathAlignment {
    /// The aligned hops, in path order.
    pub hops: Vec<AlignedHop>,
    /// Baseline path total, ms.
    pub baseline_total_ms: f64,
    /// Run path total, ms.
    pub run_total_ms: f64,
}

impl PathAlignment {
    /// Total slack delta: run total minus baseline total, ms.
    pub fn delta_total_ms(&self) -> f64 {
        self.run_total_ms - self.baseline_total_ms
    }

    /// `true` when every hop matched with zero slack delta — the
    /// self-alignment invariant (virtual time is exact, so equality is
    /// meaningful).
    pub fn is_clean(&self) -> bool {
        self.hops
            .iter()
            .all(|h| h.status == HopStatus::Matched && h.delta_ms() == 0.0)
    }

    /// Renders the alignment for a terminal.
    pub fn render(&self) -> String {
        let mut s = format!(
            "path alignment: baseline {:.3}ms -> run {:.3}ms ({:+.3}ms, {} hops)\n",
            self.baseline_total_ms,
            self.run_total_ms,
            self.delta_total_ms(),
            self.hops.len()
        );
        for h in &self.hops {
            s.push_str(&format!(
                "  {:<13} {:<16} {:>10.3}ms -> {:>10.3}ms ({:+.3}ms)  {}\n",
                h.status.label(),
                h.category,
                h.baseline_ms,
                h.run_ms,
                h.delta_ms(),
                h.label
            ));
        }
        s
    }
}

/// Aligns two critical paths hop by hop: a longest-common-subsequence
/// over the segment *category* sequences pairs up the stages both
/// recoveries went through (categories recur, so index-wise pairing
/// would misattribute an inserted stage to everything after it), and
/// the leftovers become [`HopStatus::OnlyBaseline`] /
/// [`HopStatus::OnlyRun`] hops in path order.
pub fn align_paths(baseline: &CriticalPath, run: &CriticalPath) -> PathAlignment {
    let a = &baseline.segments;
    let b = &run.segments;
    // LCS table over category sequences. Paths are short (one segment
    // per binding hop inside one recovery window), so O(n·m) is cheap.
    let (n, m) = (a.len(), b.len());
    let mut dp = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[i][j] = if a[i].category == b[j].category {
                dp[i + 1][j + 1] + 1
            } else {
                dp[i + 1][j].max(dp[i][j + 1])
            };
        }
    }
    let mut hops = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n || j < m {
        if i < n && j < m && a[i].category == b[j].category && dp[i][j] == dp[i + 1][j + 1] + 1 {
            hops.push(AlignedHop {
                status: HopStatus::Matched,
                category: a[i].category,
                baseline_ms: a[i].duration().as_millis_f64(),
                run_ms: b[j].duration().as_millis_f64(),
                label: b[j].label.clone(),
            });
            i += 1;
            j += 1;
        } else if j == m || (i < n && dp[i + 1][j] >= dp[i][j + 1]) {
            // Ties advance the baseline first, so the order (and the
            // rendered diff) is deterministic.
            hops.push(AlignedHop {
                status: HopStatus::OnlyBaseline,
                category: a[i].category,
                baseline_ms: a[i].duration().as_millis_f64(),
                run_ms: 0.0,
                label: a[i].label.clone(),
            });
            i += 1;
        } else {
            hops.push(AlignedHop {
                status: HopStatus::OnlyRun,
                category: b[j].category,
                baseline_ms: 0.0,
                run_ms: b[j].duration().as_millis_f64(),
                label: b[j].label.clone(),
            });
            j += 1;
        }
    }
    PathAlignment {
        hops,
        baseline_total_ms: baseline.total().as_millis_f64(),
        run_total_ms: run.total().as_millis_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sender: u64, seq: u64) -> MsgKey {
        MsgKey { sender, seq }
    }

    /// A small steady-state + crash/replay history over two logs (a
    /// kernel log and a recorder log). Process 1 sends k0, k1 to process
    /// 42; process 42 answers with m0 to process 1, checkpoints, crashes
    /// at t=1000µs, replays k1, and its regenerated m0 resend is
    /// suppressed at the watermark. Convergence at t=2000µs.
    fn sample_logs() -> (SpanLog, SpanLog) {
        let mut kernel = SpanLog::new(64);
        let mut recorder = SpanLog::new(64);
        let dest = 42u64;
        let k0 = key(1, 0);
        let k1 = key(1, 1);
        let m0 = key(42, 0);
        // k0, k1: full lifecycles into process 42.
        kernel.record(SimTime::from_micros(100), k0, Stage::Publish, dest, 16);
        recorder.record(SimTime::from_micros(150), k0, Stage::Capture, dest, 0);
        recorder.record(SimTime::from_micros(250), k0, Stage::Sequence, dest, 0);
        kernel.record(SimTime::from_micros(400), k0, Stage::Deliver, dest, 0);
        kernel.record(SimTime::from_micros(500), k1, Stage::Publish, dest, 16);
        recorder.record(SimTime::from_micros(550), k1, Stage::Capture, dest, 1);
        recorder.record(SimTime::from_micros(650), k1, Stage::Sequence, dest, 1);
        kernel.record(SimTime::from_micros(800), k1, Stage::Deliver, dest, 1);
        // m0: process 42's answer into process 1.
        kernel.record(SimTime::from_micros(820), m0, Stage::Publish, 1, 16);
        recorder.record(SimTime::from_micros(830), m0, Stage::Capture, 1, 0);
        recorder.record(SimTime::from_micros(840), m0, Stage::Sequence, 1, 0);
        kernel.record(SimTime::from_micros(845), m0, Stage::Deliver, 1, 0);
        // Durable checkpoint of 42 at read floor 1, crash at 1000µs,
        // replay of k1 into 42, and 42's regenerated m0 suppressed.
        recorder.record(
            SimTime::from_micros(900),
            key(42, 1),
            Stage::Checkpoint,
            dest,
            1,
        );
        recorder.record(SimTime::from_micros(1500), k1, Stage::Replay, dest, 1);
        kernel.record(SimTime::from_micros(1700), m0, Stage::Suppress, 1, 1);
        (kernel, recorder)
    }

    #[test]
    fn build_wires_all_edge_kinds() {
        let (kernel, recorder) = sample_logs();
        let g = CausalGraph::build([&kernel, &recorder]);
        assert_eq!(g.len(), 15);
        let kinds: BTreeSet<EdgeKind> = g.edges().iter().map(|e| e.kind).collect();
        for want in [
            EdgeKind::SendCapture,
            EdgeKind::CaptureSequence,
            EdgeKind::SequenceDeliver,
            EdgeKind::ProgramOrder,
            EdgeKind::SenderOrder,
            EdgeKind::SequenceReplay,
            EdgeKind::DeliverReplay,
            EdgeKind::PublishSuppress,
            EdgeKind::CheckpointFloor,
            EdgeKind::ReplaySuppress,
        ] {
            assert!(kinds.contains(&want), "missing edge kind {want:?}");
        }
        g.validate().expect("invariants hold");
    }

    #[test]
    fn explain_walks_back_to_a_root() {
        let (kernel, recorder) = sample_logs();
        let g = CausalGraph::build([&kernel, &recorder]);
        let ex = g.explain(key(1, 1)).expect("k1 retained");
        assert_eq!(ex.target.stage, Stage::Deliver);
        assert!(ex.cone_size >= 3, "cone was {}", ex.cone_size);
        assert!(ex.chain.len() >= 3);
        // Root has no inbound hop; every later hop has one.
        assert!(ex.chain[0].via.is_none());
        assert!(ex.chain[1..].iter().all(|h| h.via.is_some()));
        // Chain is time-ordered.
        for w in ex.chain.windows(2) {
            assert!(w[0].event.at <= w[1].event.at);
        }
        let text = ex.render();
        assert!(text.contains("explain 0.1#1"));
        assert!(text.contains("ancestor cone"));
    }

    #[test]
    fn explain_unknown_key_is_none() {
        let (kernel, recorder) = sample_logs();
        let g = CausalGraph::build([&kernel, &recorder]);
        assert!(g.explain(key(9, 9)).is_none());
    }

    #[test]
    fn critical_path_telescopes_to_the_window() {
        let (kernel, recorder) = sample_logs();
        let g = CausalGraph::build([&kernel, &recorder]);
        let crash = SimTime::from_micros(1000);
        let converged = SimTime::from_micros(2000);
        let cp = g.critical_path(crash, converged, None).expect("path");
        assert_eq!(cp.total(), converged.saturating_since(crash));
        // The binding chain is crash → replay k1 → suppress m0 → commit.
        assert_eq!(cp.segments.first().unwrap().category, "replay");
        assert_eq!(cp.segments.last().unwrap().category, "commit");
        let by = cp.by_stage();
        assert_eq!(by["replay"], SimDuration::from_micros(500));
        assert_eq!(by["suppression"], SimDuration::from_micros(200));
        assert_eq!(by["commit"], SimDuration::from_micros(300));
        // Registry projection totals agree.
        let mut reg = MetricsRegistry::new();
        cp.into_registry(&mut reg);
        assert_eq!(
            reg.gauge_value("critical_path/total_ms"),
            Some(cp.total().as_millis_f64())
        );
        assert!(cp.render().contains("longest segments"));
        assert!(cp.top_segments(3).len() <= 3);
    }

    #[test]
    fn critical_path_attributes_an_election_hop() {
        // Leader crash at t=1000µs: captures keep landing while the
        // group is leaderless, a new leader is elected at t=1400µs, it
        // sequences the backlog, and the destination reads it.
        let mut kernel = SpanLog::new(64);
        let mut replica = SpanLog::new(64);
        let dest = 42u64;
        let station = 2u64 << 32; // the new leader's station identity
        let k0 = key(1, 0);
        kernel.record(SimTime::from_micros(900), k0, Stage::Publish, dest, 16);
        replica.record(SimTime::from_micros(1100), k0, Stage::Capture, dest, 0);
        replica.record(
            SimTime::from_micros(1400),
            MsgKey {
                sender: station,
                seq: 3,
            },
            Stage::Elect,
            station,
            3,
        );
        replica.record(SimTime::from_micros(1600), k0, Stage::Sequence, dest, 0);
        kernel.record(SimTime::from_micros(1800), k0, Stage::Deliver, dest, 0);
        let g = CausalGraph::build([&kernel, &replica]);
        g.validate().expect("invariants hold");
        assert!(
            g.edges().iter().any(|e| e.kind == EdgeKind::ElectGate),
            "election gates the post-failover sequencing"
        );
        let cp = g
            .critical_path(
                SimTime::from_micros(1000),
                SimTime::from_micros(2000),
                Some(dest),
            )
            .expect("path");
        let by = cp.by_stage();
        assert_eq!(
            by.get("election").copied(),
            Some(SimDuration::from_micros(400)),
            "crash → elect window is attributed to the election"
        );
        assert!(cp
            .segments
            .iter()
            .any(|s| s.kind == Some(EdgeKind::ElectGate)));
        assert_eq!(cp.total(), SimDuration::from_micros(1000));
    }

    #[test]
    fn critical_path_empty_window_is_none() {
        let (kernel, recorder) = sample_logs();
        let g = CausalGraph::build([&kernel, &recorder]);
        assert!(g
            .critical_path(SimTime::from_secs(100), SimTime::from_secs(101), None)
            .is_none());
        assert!(g
            .critical_path(SimTime::from_micros(2000), SimTime::from_micros(850), None)
            .is_none());
    }

    #[test]
    fn divergence_diff_pinpoints_injected_reordering() {
        let (kernel, recorder) = sample_logs();
        let baseline = CausalGraph::build([&kernel, &recorder]);
        // Re-record the kernel log with the two deliveries into process
        // 42 swapped — a single-event reordering; everything else is
        // byte-identical.
        let mut k2 = SpanLog::new(64);
        let dest = 42u64;
        k2.record(
            SimTime::from_micros(100),
            key(1, 0),
            Stage::Publish,
            dest,
            16,
        );
        k2.record(
            SimTime::from_micros(400),
            key(1, 1),
            Stage::Deliver,
            dest,
            0,
        ); // swapped
        k2.record(
            SimTime::from_micros(500),
            key(1, 1),
            Stage::Publish,
            dest,
            16,
        );
        k2.record(
            SimTime::from_micros(800),
            key(1, 0),
            Stage::Deliver,
            dest,
            1,
        ); // swapped
        k2.record(SimTime::from_micros(820), key(42, 0), Stage::Publish, 1, 16);
        k2.record(SimTime::from_micros(845), key(42, 0), Stage::Deliver, 1, 0);
        k2.record(
            SimTime::from_micros(1700),
            key(42, 0),
            Stage::Suppress,
            1,
            1,
        );
        let run = CausalGraph::build([&k2, &recorder]);
        let d = divergence_diff(&baseline, &run).expect("diverges");
        // First divergent event is the first (swapped) delivery.
        assert_eq!(d.want.unwrap().key, key(1, 0));
        assert_eq!(d.have.unwrap().key, key(1, 1));
        assert_eq!(d.have.unwrap().stage, Stage::Deliver);
        assert!(d.render().contains("first divergence"));
        assert!(!d.ancestors.is_empty(), "divergent event has a cone");

        // Identical streams do not diverge.
        assert!(divergence_diff(&baseline, &baseline).is_none());
    }

    #[test]
    fn divergence_diff_detects_truncated_stream() {
        let (kernel, recorder) = sample_logs();
        let baseline = CausalGraph::build([&kernel, &recorder]);
        let run = CausalGraph::build([&kernel]);
        let d = divergence_diff(&baseline, &run).expect("diverges");
        assert!(d.index < baseline.len());
        assert!(d.render().contains("run:"));
    }

    #[test]
    fn self_alignment_is_clean_and_total() {
        let (kernel, recorder) = sample_logs();
        let g = CausalGraph::build([&kernel, &recorder]);
        let cp = g
            .critical_path(SimTime::from_micros(1000), SimTime::from_micros(2000), None)
            .expect("path");
        let al = align_paths(&cp, &cp);
        assert!(
            al.is_clean(),
            "self-alignment must be clean:\n{}",
            al.render()
        );
        assert_eq!(al.hops.len(), cp.segments.len());
        assert_eq!(al.delta_total_ms(), 0.0);
        assert!(al.render().contains("matched"));
    }

    #[test]
    fn alignment_attributes_an_inserted_stage_and_telescopes() {
        let (kernel, recorder) = sample_logs();
        let g = CausalGraph::build([&kernel, &recorder]);
        let crash = SimTime::from_micros(1000);
        let base = g
            .critical_path(crash, SimTime::from_micros(2000), None)
            .expect("path");
        // The run's recovery takes a detour: same stages, but with an
        // extra checkpoint_load hop spliced in and a longer commit tail.
        let mut run = base.clone();
        run.converged_at = SimTime::from_micros(2600);
        let commit = run.segments.pop().expect("commit tail");
        run.segments.push(Segment {
            category: "checkpoint_load",
            kind: None,
            from: commit.from,
            to: commit.from + SimDuration::from_micros(300),
            label: "checkpoint 0.42#1 reloaded".into(),
        });
        run.segments.push(Segment {
            category: "commit",
            kind: None,
            from: commit.from + SimDuration::from_micros(300),
            to: run.converged_at,
            label: commit.label.clone(),
        });
        let al = align_paths(&base, &run);
        assert!(!al.is_clean());
        // Totality: every segment of both paths is consumed exactly once.
        let consumed_base = al
            .hops
            .iter()
            .filter(|h| h.status != HopStatus::OnlyRun)
            .count();
        let consumed_run = al
            .hops
            .iter()
            .filter(|h| h.status != HopStatus::OnlyBaseline)
            .count();
        assert_eq!(consumed_base, base.segments.len());
        assert_eq!(consumed_run, run.segments.len());
        // The inserted stage surfaces as an only_run hop of its category.
        assert!(al
            .hops
            .iter()
            .any(|h| h.status == HopStatus::OnlyRun && h.category == "checkpoint_load"));
        // Telescoping: hop deltas sum to the total delta.
        let sum: f64 = al.hops.iter().map(AlignedHop::delta_ms).sum();
        assert!((sum - al.delta_total_ms()).abs() < 1e-9);
        assert!((al.delta_total_ms() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn dot_output_is_deterministic_and_complete() {
        let (kernel, recorder) = sample_logs();
        let a = CausalGraph::build([&kernel, &recorder]).to_dot();
        let b = CausalGraph::build([&kernel, &recorder]).to_dot();
        assert_eq!(a, b);
        assert!(a.starts_with("digraph happens_before {"));
        let node_lines = a
            .lines()
            .filter(|l| l.starts_with("  n") && !l.contains("->") && !l.starts_with("  node"))
            .count();
        assert_eq!(node_lines, 15);
        assert!(a.matches(" -> ").count() >= 15);
        assert!(a.contains("deliver→replay"));
    }

    #[test]
    fn dedup_keeps_each_edges_first_copy_in_place() {
        let edge = |from, to, kind| Edge { from, to, kind };
        let (a, b, c) = (
            edge(0, 2, EdgeKind::ProgramOrder),
            edge(1, 2, EdgeKind::SendCapture),
            edge(0, 2, EdgeKind::DeliverReplay),
        );
        let mut edges = vec![a, b, a, c, b, a];
        dedup_keep_first(&mut edges, &mut Vec::new());
        assert_eq!(edges, [a, b, c]);
    }

    #[test]
    fn csr_runs_hold_edge_ids_in_insertion_order() {
        let (off, ids) = csr(4, [3, 1, 3, 0, 1].into_iter());
        assert_eq!(off, [0, 1, 3, 3, 5]);
        assert_eq!(ids, [3, 1, 4, 0, 2]);
    }

    #[test]
    fn same_instant_events_never_cycle() {
        // All events at the same virtual instant (CostModel::zero()
        // worlds do this): graph must still validate.
        let mut a = SpanLog::new(16);
        let mut b = SpanLog::new(16);
        let k0 = key(1, 0);
        a.record(SimTime::ZERO, k0, Stage::Publish, 7, 0);
        b.record(SimTime::ZERO, k0, Stage::Capture, 7, 0);
        b.record(SimTime::ZERO, k0, Stage::Sequence, 7, 0);
        a.record(SimTime::ZERO, k0, Stage::Deliver, 7, 0);
        let g = CausalGraph::build([&a, &b]);
        g.validate().expect("no cycles at a single instant");
    }
}
