//! The `distserve` binary turns bad numbers into an error and exit
//! code 1, not a panic.

use std::process::Command;

/// Rates, SLO bounds and probe durations that are zero, negative or not
/// finite, a seed or parallel degree that is not a non-negative integer,
/// and a request or replica count of zero: each must fail before any
/// planning starts, naming the flag.
#[test]
fn bad_numbers_are_errors_not_panics() {
    for args in [
        &["serve", "--rate", "0"][..],
        &["serve", "--rate", "-2"],
        &["serve", "--rate", "nan"],
        &["serve", "--seed", "-3"],
        &["plan", "--system", "vllm", "--tp", "2.5"],
        &["sweep", "--rates", "0,-1"],
        &["plan", "--ttft", "-1"],
        &["plan", "--tpot", "inf"],
        &["plan", "--probe-secs", "-5"],
        &["serve", "--requests", "0"],
        &["plan", "--system", "vllm", "--replicas", "0"],
        &["sweep", "--system", "vllm", "--replicas", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_distserve"))
            .args(args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: --"), "{args:?}: {stderr}");
    }
}
