//! The `lab` command-line contract, checked on the real executable:
//! command-line errors exit 2 with the usage on stderr, `lab compare`
//! keeps its 0 / 1 / 2 exit codes, and `lab chaos --schedule` replays a
//! reproducer literal on the world the literal names.

use publishing_perf::snapshot::Snapshot;
use std::path::PathBuf;
use std::process::{Command, Output};

fn lab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lab"))
        .args(args)
        .output()
        .expect("lab runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn command_line_errors_exit_2_with_usage_on_stderr() {
    for (args, names) in [
        // No command, or one that does not exist: the command list.
        (&[][..], "lab tables"),
        (&["paper_tables"][..], "lab tables"),
        // An unknown flag, a flag missing its value, a malformed value,
        // a stray positional: the command's own usage line.
        (
            &["bench", "--fast"][..],
            "usage: lab bench [--smoke] [--dir DIR]",
        ),
        (
            &["bench", "--dir"][..],
            "usage: lab bench [--smoke] [--dir DIR]",
        ),
        (&["chaos", "--seed", "many"][..], "usage: lab chaos "),
        (&["lens", "--medium", "aether"][..], "usage: lab lens "),
        (
            &["report", "--topology", "single"][..],
            "usage: lab report ",
        ),
        (
            &["forensics", "--inject", "proto_cpu"][..],
            "usage: lab forensics ",
        ),
        (&["compare", "only-one.json"][..], "usage: lab compare "),
        (&["smoke"][..], "usage: lab smoke --dir DIR"),
    ] {
        let out = lab(args);
        assert_eq!(out.status.code(), Some(2), "lab {args:?}");
        assert!(out.stdout.is_empty(), "lab {args:?} wrote to stdout");
        let err = stderr(&out);
        assert!(err.contains(names), "lab {args:?} stderr:\n{err}");
    }
}

#[test]
fn compare_exits_0_1_2_on_self_regression_and_mismatch() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../perf/BENCH_1.json");
    let snap = Snapshot::from_json(&std::fs::read_to_string(baseline).expect("baseline reads"))
        .expect("baseline parses");
    let dir = std::env::temp_dir().join(format!("lab-cli-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = |name: &str, snap: &Snapshot| -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, snap.to_json()).expect("temp file writes");
        path
    };

    let mut slower = snap.clone();
    for sc in &mut slower.scenarios {
        if let Some(v) = sc.virt.get_mut("publish_to_deliver_us_p99") {
            *v *= 2.0;
        }
    }
    let mut other_schema = snap.clone();
    other_schema.schema += 1;

    for (new, code, says) in [
        (file("same.json", &snap), 0, "PASS: "),
        (
            file("slower.json", &slower),
            1,
            "REGRESSION publish_to_deliver_us_p99",
        ),
        (
            file("schema.json", &other_schema),
            2,
            "snapshots not comparable: schema",
        ),
    ] {
        let out = lab(&["compare", baseline, new.to_str().expect("utf-8 path")]);
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{}:\n{text}", new.display());
        assert!(text.contains(says), "{}:\n{text}", new.display());
    }
    // An unreadable input is exit 2 as well, with nothing on stdout.
    let out = lab(&["compare", baseline, "/nonexistent/BENCH_9.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).expect("temp dir removes");
}

#[test]
fn chaos_replays_a_reproducer_on_the_world_it_names() {
    let faults = "seed=1 horizon=600ms crash_node@200ms#2 crash_recorder@250ms#1";
    for (tokens, topology, medium) in [
        ("topology=sharded medium=perfect ", "sharded", "perfect"),
        ("medium=ethernet ", "single", "ethernet"),
        // Without the tokens: the single recorder on the perfect bus,
        // whatever the faults look like.
        ("", "single", "perfect"),
        // The quorum does not hold a leader on the contended ethernet
        // (DESIGN §15), so this one only has to reach that world.
        ("topology=quorum medium=ethernet ", "quorum", "ethernet"),
    ] {
        let out = lab(&["chaos", "--schedule", &format!("{tokens}{faults}")]);
        let err = stderr(&out);
        assert!(
            err.contains(&format!(
                "replaying on the {topology} world, {medium} medium"
            )),
            "{tokens}: {err}"
        );
        if topology != "quorum" {
            // The verdict says when the run ended and what its fault-free
            // twin's span fingerprint is, and carries the whole
            // reproducer, which replays.
            assert_eq!(out.status.code(), Some(0), "{tokens}: {err}");
            let reproducer = format!("topology={topology} medium={medium} {faults}");
            let verdict = String::from_utf8_lossy(&out.stdout).into_owned();
            let how = verdict
                .strip_prefix("schedule passed (settled=+")
                .and_then(|rest| rest.strip_suffix(&format!("): {reproducer}\n")))
                .and_then(|rest| rest.split_once("ms, twin 0x"));
            assert!(
                how.is_some_and(
                    |(ms, twin)| ms.parse::<u64>().is_ok() && u64::from_str_radix(twin, 16).is_ok()
                ),
                "{verdict}"
            );
            let again = lab(&["chaos", "--schedule", &reproducer]);
            assert_eq!(again.stdout, out.stdout, "{reproducer}");
        }
    }
    // A literal that does not parse fails the replay, not the command
    // line, and the message names the token.
    for (literal, token) in [
        ("seed=1 horizon=soon", "soon"),
        ("topology=ring seed=1 horizon=600ms", "ring"),
        (
            "seed=1 horizon=100ms crash_node@500ms#0",
            "crash_node@500ms#0",
        ),
    ] {
        let out = lab(&["chaos", "--schedule", literal]);
        assert_eq!(out.status.code(), Some(1), "{literal}");
        assert!(out.stdout.is_empty(), "{literal}");
        assert!(stderr(&out).contains(token), "{literal}: {}", stderr(&out));
    }
}
