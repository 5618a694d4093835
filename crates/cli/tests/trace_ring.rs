//! `trace` sizes its event ring for the whole run: a Masstree replay,
//! whose request marks far outnumber its per-core frequency events,
//! keeps every event and prints no drop warning.

use std::process::Command;

#[test]
fn short_masstree_trace_drops_no_events() {
    let dir = std::env::temp_dir().join("deeppower-cli-trace-ring");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("trace.jsonl");
    // `--episodes 0` replays the untrained policy: no training time.
    let out = Command::new(env!("CARGO_BIN_EXE_deeppower"))
        .args([
            "trace",
            "--app",
            "masstree",
            "--episodes",
            "0",
            "--duration-s",
            "1",
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn deeppower binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "trace failed:\n{stderr}");
    assert!(
        !stderr.contains("dropped"),
        "the trace ring overflowed:\n{stderr}"
    );
    let events = std::fs::read_to_string(&out_path).unwrap().lines().count();
    assert!(
        events > 100_000,
        "only {events} events for a 1 s Masstree trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}
