//! Schedule-exploration regression tests.
//!
//! The two races PR 2's perturbation detector originally caught (and the
//! protocol fixes closed) are resurrected here behind [`RaceFixture`]s,
//! and the DPOR explorer must rediscover both from scratch — minimized to
//! a short reproducer — while clean configs exhaust their schedule space
//! with a single terminal fingerprint.

use ftmpi_check::{explore, explore_configs, parse_artifact, replay, ExploreOptions};

fn config(name: &str) -> ftmpi_check::ExploreConfig {
    explore_configs()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no explore config named {name}"))
}

#[test]
fn clean_pcl_ring_exhausts_with_one_outcome() {
    let cfg = config("pcl3.ring");
    assert!(cfg.fixture.is_none() && !cfg.expect_violation);
    let out = explore(&cfg, &ExploreOptions::default()).expect("exploration runs");
    assert!(out.exhausted, "schedule space not exhausted: {out:?}");
    assert!(out.violation.is_none(), "clean config violated: {out:?}");
    assert_eq!(
        out.distinct_outcomes, 1,
        "a race-free config must reach one terminal state: {out:?}"
    );
    assert!(out.runs > 1, "exploration never branched: {out:?}");
    assert!(
        out.pruned > 0,
        "commutation oracle never pruned a branch: {out:?}"
    );
}

#[test]
fn laneless_marker_race_rediscovered_and_minimized() {
    let cfg = config("vcl2.laneless-markers");
    assert!(cfg.fixture.is_some() && cfg.expect_violation);
    let out = explore(&cfg, &ExploreOptions::default()).expect("exploration runs");
    let v = out.violation.expect("seeded marker race must be found");
    assert!(
        v.kind.starts_with("invariant:"),
        "marker/data reorder must surface as an invariant break, got `{}`",
        v.kind
    );
    assert!(!v.minimized.is_empty());
    assert!(v.minimized.len() <= v.schedule.len());
    // Greedy shrinking leaves exactly one non-canonical choice: the single
    // marker-vs-delivery flip that loses a message from the channel log.
    assert_eq!(
        v.minimized.iter().filter(|&&c| c != 0).count(),
        1,
        "minimized reproducer should be a single flip: {:?}",
        v.minimized
    );
    assert_ne!(
        *v.minimized.last().expect("non-empty"),
        0,
        "trailing canonical choices must be trimmed: {:?}",
        v.minimized
    );
}

#[test]
fn unstaggered_flow_race_rediscovered_and_minimized() {
    let cfg = config("pcl3.unstaggered-flows");
    assert!(cfg.fixture.is_some() && cfg.expect_violation);
    let out = explore(&cfg, &ExploreOptions::default()).expect("exploration runs");
    let v = out.violation.expect("seeded flow race must be found");
    assert!(!v.minimized.is_empty());
    assert_eq!(
        v.minimized.iter().filter(|&&c| c != 0).count(),
        1,
        "minimized reproducer should be a single flip: {:?}",
        v.minimized
    );
}

/// The counts were captured while a binary-heap queue backend still ran
/// beside the ladder and both explored exactly this space (`vcl3.ring` is
/// pinned the same way in `golden.rs`).
#[test]
fn pcl3_ring_exploration_matches_pinned_counts() {
    let cfg = config("pcl3.ring");
    let out = explore(&cfg, &ExploreOptions::default()).expect("exploration runs");
    assert!(out.exhausted);
    assert!(out.violation.is_none());
    assert_eq!(out.runs, 75, "explored a different space");
    assert_eq!(out.canonical_fp, 0xc20f_d04d_1c3b_6f31);
    assert_eq!(out.distinct_outcomes, 1);
    assert_eq!(out.pruned, 20, "commutation pruning moved");
    assert_eq!(out.deduped, 2893, "state memoization moved");
    assert_eq!(out.max_decisions, 67);
}

#[test]
fn reproducer_artifact_survives_a_dump_parse_replay_cycle() {
    let cfg = config("vcl2.laneless-markers");
    let dir = std::env::temp_dir().join(format!("ftmpi-explore-test-{}", std::process::id()));
    let opts = ExploreOptions {
        artifact_dir: Some(dir.clone()),
        ..ExploreOptions::default()
    };
    let out = explore(&cfg, &opts).expect("exploration runs");
    let v = out.violation.expect("seeded race must be found");
    let path = v.artifact.expect("artifact dir was configured");
    let text = std::fs::read_to_string(&path).expect("artifact readable");
    let repro = parse_artifact(&text).expect("artifact parses");
    assert_eq!(repro.config, cfg.name);
    assert_eq!(repro.schedule, v.minimized);
    let verdict = replay(&repro).expect("replay runs");
    assert_eq!(
        verdict.as_deref(),
        Some(v.kind.as_str()),
        "replay must reproduce the dumped violation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
