//! Smoke test for `lab tables`: runs the real executable and checks the
//! headline numbers, including the sharded-tier capacity table's
//! monotone growth.

use std::process::Command;

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lab"))
        .arg("tables")
        .args(args)
        .output()
        .expect("lab tables runs");
    assert!(out.status.success(), "exit: {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn capacity_section_reports_115_users() {
    let text = run(&["capacity"]);
    let users: u32 = text
        .lines()
        .find(|l| l.contains("before any component saturates"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("capacity line");
    assert!((110..=120).contains(&users), "{users}");
}

#[test]
fn shard_capacity_table_grows_monotonically() {
    let text = run(&["shard_capacity"]);
    // Parse the table body: rows of "shards tier(R=1) tier(R=2) medium effective".
    let rows: Vec<Vec<u64>> = text
        .lines()
        .filter_map(|l| {
            let nums: Vec<u64> = l
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?;
            (nums.len() == 5).then_some(nums)
        })
        .collect();
    assert_eq!(rows.len(), 8, "expected 8 shard rows in:\n{text}");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[0], i as u64 + 1, "shard column");
    }
    for w in rows.windows(2) {
        // Partitioned tier capacity strictly increases with each shard;
        // the replicated and effective columns never decrease.
        assert!(w[1][1] > w[0][1], "tier (R=1) must increase: {rows:?}");
        assert!(w[1][2] >= w[0][2], "tier (R=2) must not decrease: {rows:?}");
        assert!(w[1][4] >= w[0][4], "effective must not decrease: {rows:?}");
    }
    // 8 shards carry several times the single-recorder load.
    assert!(rows[7][1] >= 8 * rows[0][1] - 8);
    assert!(rows[7][4] > 3 * rows[0][4]);
}

#[test]
fn full_output_includes_every_section() {
    let text = run(&[]);
    for name in [
        "fig2_1",
        "fig3_1",
        "young",
        "fig5_1",
        "fig5_2",
        "fig5_3",
        "fig5_4",
        "fig5_5",
        "capacity",
        "shard_capacity",
        "fig5_7",
        "fig5_8",
        "publish_cost",
        "fig6_2",
        "fig6_4",
        "baselines",
        "recovery_time",
        "windowing",
        "node_unit",
    ] {
        assert!(
            text.contains(&format!("\n{name}: ")),
            "missing section {name}"
        );
    }
}
