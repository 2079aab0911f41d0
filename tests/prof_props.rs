//! Property tests for the always-on self-profiler (`crates/prof`).
//!
//! Two contracts the rest of the system leans on:
//!
//! 1. **Fold well-formedness** — whatever arbitrary nesting a program
//!    runs (straight-line, recursive, early returns via `?`, panics
//!    unwinding through open guards), the thread's scope stack is
//!    depth-balanced afterwards and the snapshot folds to well-formed
//!    `a;b;c <self_ns>` lines whose self times re-sum to the total
//!    *exactly*.
//! 2. **Heisenberg guard** — enabling the profiler must never change
//!    what the profiled system computes: a routed `ScaleSim` run is
//!    bit-identical (every `ScaleOutcome` field) with profiling on and
//!    off.
//!
//! Case counts honor the `PROPTEST_CASES` environment variable.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use proptest::prelude::*;

use distserve::prof;
use distserve::router::{
    Assignment, FleetSpec, RouterPolicy, ScaleOutcome, ScaleSim, ScaleSlo, ServiceProfile,
};
use distserve::workload::{Dataset, RequestStream};

/// Case count from `PROPTEST_CASES`, falling back to `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The profiler's gate and registry are process-global; tests that
/// toggle them must not interleave.
fn lock_prof() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Scope names the generated programs draw from. `&'static str` is part
/// of the profiler's contract, so programs pick from a fixed palette.
const NAMES: &[&str] = &["pp_a", "pp_b", "pp_c", "pp_d", "pp_e"];

/// Interprets one opcode stream as a scope program using an explicit
/// guard stack: `op % 3 == 0` pushes a scope, `1` pops one, `2` runs a
/// leaf scope. Unclosed guards unwind in LIFO order at the end — the
/// "early return with scopes still open" shape.
fn run_stack_program(ops: &[u8]) {
    let mut stack = Vec::new();
    for &op in ops {
        match op % 3 {
            0 => {
                if stack.len() < 12 {
                    stack.push(prof::scope(NAMES[(op / 3) as usize % NAMES.len()]));
                }
            }
            1 => {
                drop(stack.pop());
            }
            _ => {
                let _leaf = prof::scope(NAMES[(op / 3) as usize % NAMES.len()]);
            }
        }
    }
    while let Some(g) = stack.pop() {
        drop(g);
    }
}

/// Recursive descent with a `?`-style early return at `fail_depth`:
/// every frame holds a live guard when the error propagates up through
/// all of them.
fn run_recursive(path: &[u8], depth: usize, fail_depth: Option<usize>) -> Result<(), ()> {
    let Some(&name) = path.get(depth) else {
        return Ok(());
    };
    let _g = prof::scope(NAMES[name as usize % NAMES.len()]);
    if fail_depth == Some(depth) {
        return Err(());
    }
    run_recursive(path, depth + 1, fail_depth)
}

/// Panic unwinding through open guards must also rebalance the stack.
fn run_panicking(path: &[u8]) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _outer = prof::scope(NAMES[0]);
        for &name in path {
            let _inner = prof::scope(NAMES[name as usize % NAMES.len()]);
        }
        let _deep = prof::scope(NAMES[1]);
        panic!("unwind through open scopes");
    }));
    assert!(result.is_err(), "program is expected to panic");
}

/// Asserts every folded line parses as `seg(;seg)* <u64>` with
/// non-empty segments, and that lines rooted in the program palette
/// never nest deeper than the interpreter's depth bound.
fn assert_folded_well_formed(folded: &str) {
    for line in folded.lines() {
        let (path, count) = line.rsplit_once(' ').expect("folded line has a count");
        count.parse::<u64>().expect("folded count is a bare u64");
        let segs: Vec<&str> = path.split(';').collect();
        assert!(!segs.is_empty(), "folded path has segments: {line:?}");
        for seg in &segs {
            assert!(!seg.is_empty(), "no empty path segment: {line:?}");
            assert!(
                !seg.contains(' '),
                "segment must not eat the separator: {line:?}"
            );
        }
        if NAMES.contains(&segs[0]) {
            assert!(
                segs.len() <= 14,
                "program scopes respect the depth bound: {line:?}"
            );
            assert!(
                segs.iter().all(|s| NAMES.contains(s)),
                "program subtrees contain only palette names: {line:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// Arbitrary push/pop/leaf programs leave the thread depth-balanced
    /// and fold to well-formed stacks whose self times re-sum exactly.
    #[test]
    fn stack_programs_fold_well_formed(ops in prop::collection::vec(any::<u8>(), 0..200)) {
        let _guard = lock_prof();
        prof::reset();
        prof::set_enabled(true);
        run_stack_program(&ops);
        prof::set_enabled(false);
        prop_assert_eq!(prof::depth(), 0, "guard stack must rebalance");
        let profile = prof::snapshot();
        assert_folded_well_formed(&profile.folded());
        prop_assert_eq!(
            profile.self_ns_sum(),
            profile.total_ns(),
            "leaf self times re-sum to the root total exactly"
        );
    }

    /// Early returns (`?`) and panic unwinds drop every open guard and
    /// restore depth 0, however deep the failure happened.
    #[test]
    fn early_exits_rebalance_the_stack(
        path in prop::collection::vec(any::<u8>(), 1..10),
        fail_at in any::<u8>(),
        use_panic in any::<bool>(),
    ) {
        let _guard = lock_prof();
        prof::set_enabled(true);
        if use_panic {
            run_panicking(&path);
        } else {
            let fail_depth = fail_at as usize % path.len();
            prop_assert_eq!(run_recursive(&path, 0, Some(fail_depth)), Err(()));
        }
        prof::set_enabled(false);
        prop_assert_eq!(prof::depth(), 0, "early exit must rebalance the stack");
        let profile = prof::snapshot();
        prop_assert_eq!(profile.self_ns_sum(), profile.total_ns());
    }
}

/// One routed scale run, small enough for a property-test loop.
fn routed_outcome(n: usize, arrival_seed: u64, sim_seed: u64) -> ScaleOutcome {
    let fleet = FleetSpec {
        prefill: 2,
        decode: 3,
        colocated: 2,
        profile: ServiceProfile::a100_13b(),
    };
    let policy = RouterPolicy {
        queue_cap: 4,
        max_wait_secs: 0.5,
        retry_gap_secs: 0.1,
    };
    let slo = ScaleSlo {
        ttft_s: 0.4,
        tpot_s: 0.1,
    };
    let stream = RequestStream::poisson(Dataset::ShareGpt.sampler(), 80.0, arrival_seed).take(n);
    ScaleSim::new(fleet, policy, slo, Assignment::Routed, sim_seed).run(stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// The profiler observes; it must never steer. A routed sim run
    /// yields bit-identical outcomes with profiling off and on.
    #[test]
    fn profiler_never_perturbs_sim_results(
        arrival_seed in 0u64..1_000_000,
        sim_seed in 0u64..1_000_000,
    ) {
        let _guard = lock_prof();
        prof::set_enabled(false);
        let off = routed_outcome(2_000, arrival_seed, sim_seed);
        prof::set_enabled(true);
        let on = routed_outcome(2_000, arrival_seed, sim_seed);
        prof::set_enabled(false);
        prop_assert_eq!(
            format!("{off:?}"),
            format!("{on:?}"),
            "profiling must not change any outcome field"
        );
    }
}
