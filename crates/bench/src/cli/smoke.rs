//! `lab smoke` — every CI gate of the command line, one artifact
//! directory.
//!
//! Runs each gate below as a child of this executable, in order, with
//! the gate's stdout written to `DIR/<gate>.txt` (stderr passes
//! through: the path-bearing progress lines live there) and the bench
//! snapshot, Chrome trace and causal DOTs written into `DIR` beside
//! them. Prints one `ok <gate>` line per gate; at the first gate whose
//! exit code is not the expected one, prints that gate's output and
//! exits 1.
//!
//! Everything in `DIR` is a function of the build alone — virtual time
//! replays exactly — so CI runs `lab smoke` twice and `diff -r`s the two
//! directories: every gate's stdout is checked for determinism across
//! processes (no gate runs a world twice to compare it with itself),
//! `tables.txt` is `cmp`ed against `paper_tables_output.txt`, and
//! `BENCH_1.json` against the committed virtual baseline.

use super::{fail, write_file, Flags};
use publishing_perf::snapshot::next_snapshot_number;
use std::io::Write;
use std::process::{Command, Stdio};

pub(super) const USAGE: &str = "--dir DIR";

/// The gates: name, the `lab` arguments (a leading `@` marks a path
/// inside the artifact directory), and the exit code that passes. The
/// injected-regression forensics runs pass by exiting 1: the injected
/// knob moved the snapshot.
const GATES: &[(&str, &[&str], i32)] = &[
    (
        "report",
        &["report", "--smoke", "--trace", "@trace.json"],
        0,
    ),
    ("report_json", &["report", "--json", "--smoke"], 0),
    ("chaos", &["chaos", "--smoke"], 0),
    // One fixed reproducer per topology, world tokens included: a
    // literal that stops parsing or changes verdict fails here.
    (
        "chaos_replay",
        &[
            "chaos",
            "--schedule",
            "topology=single medium=ethernet seed=21 horizon=900ms crash_process@15ms#1 \
             crash_node@30ms#2 crash_recorder@300ms#0 restart_recorder@450ms#0",
            "--schedule",
            "topology=sharded medium=perfect seed=21 horizon=900ms crash_process@15ms#1 \
             crash_node@30ms#2 add_shard@200ms crash_recorder@300ms#1 restart_recorder@450ms#1",
            "--schedule",
            "topology=quorum medium=perfect seed=21 horizon=900ms crash_process@260ms#1 \
             crash_node@300ms#2 crash_recorder@400ms#2",
        ],
        0,
    ),
    ("quorum", &["quorum", "--smoke"], 0),
    (
        "report_quorum",
        &["report", "--smoke", "--topology", "quorum"],
        0,
    ),
    (
        "explain_quorum",
        &[
            "explain",
            "--quorum",
            "--smoke",
            "--dot",
            "@causal_quorum.dot",
        ],
        0,
    ),
    ("capacity", &["capacity", "--smoke"], 0),
    ("capacity_json", &["capacity", "--smoke", "--json"], 0),
    ("lens", &["lens", "--smoke"], 0),
    ("lens_json", &["lens", "--smoke", "--json"], 0),
    ("forensics", &["forensics", "--smoke"], 0),
    ("forensics_inject", &["forensics"], 1),
    ("forensics_json", &["forensics", "--json"], 1),
    ("bench", &["bench", "--smoke", "--dir", "@"], 0),
    (
        "explain",
        &["explain", "--smoke", "--dot", "@causal.dot"],
        0,
    ),
    ("tables", &["tables"], 0),
];

pub(super) fn run(flags: &Flags) {
    let Some(dir) = flags.value("--dir").map(std::path::PathBuf::from) else {
        flags.reject("--dir is required");
    };
    if next_snapshot_number(&dir) != 1 {
        // The bench gate numbers its snapshot past any it finds, and the
        // callers read BENCH_1.json.
        fail(
            2,
            format!("{} already holds a BENCH snapshot", dir.display()),
        );
    }
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(2, format!("cannot locate the lab executable: {e}")));
    for &(gate, args, want) in GATES {
        let out = Command::new(&exe)
            .args(args.iter().map(|a| match a.strip_prefix('@') {
                Some(file) => dir.join(file).into_os_string(),
                None => a.into(),
            }))
            .stderr(Stdio::inherit())
            .output()
            .unwrap_or_else(|e| fail(2, format!("cannot run gate {gate}: {e}")));
        write_file(dir.join(format!("{gate}.txt")), &out.stdout);
        if out.status.code() != Some(want) {
            // Best effort: the verdict below is what matters.
            let _ = std::io::stdout().write_all(&out.stdout);
            fail(
                1,
                format!(
                    "smoke: gate {gate} (lab {}) ended with {}, expected exit code {want}",
                    args.join(" "),
                    out.status
                ),
            );
        }
        println!("ok {gate}");
    }
}
