//! Always-on scoped self-profiler.
//!
//! DistServe's methodology starts from knowing *where time goes*: the
//! paper's placement search is driven by profiler-fitted latency models
//! (§4), and pushing `tinyllm` toward hardware limits needs per-kernel
//! CPU attribution, not end-to-end stopwatch numbers. This crate is the
//! self-observability layer the request-level telemetry stack
//! (`crates/telemetry`, `crates/trace`) deliberately does not provide:
//! it profiles the *server's own code* — GEMM tile loops, fused
//! attention, int8 dots, KV appends, pool dispatch, simulator event
//! handlers — rather than request lifecycles.
//!
//! # Scope model
//!
//! [`scope("name")`](scope) returns a RAII guard. While the guard
//! lives, the named scope is the current node of a per-thread call-stack
//! *trie*; dropping the guard (normally or via early return / `?` /
//! panic unwind) adds the elapsed wall time to that node and pops back
//! to the parent. Nesting scopes builds paths (`step;attn;qkv_gemm`),
//! and the same path from two call sites accumulates into one node —
//! exactly the folded-stack semantics of flamegraph tooling.
//!
//! Guards are `!Send`: a scope opened on one thread must close on the
//! same thread, which is what keeps each thread's trie well-formed by
//! construction. Worker threads (e.g. `tinyllm`'s persistent pool) get
//! their own tries, registered globally and merged by
//! [`snapshot`] — kernel time spent on pool workers lands under the
//! same folded paths as the dispatching thread's.
//!
//! # Overhead
//!
//! The profiler is compiled in unconditionally and gated by one
//! `AtomicBool`: with profiling disabled, [`scope`] is a single relaxed
//! load returning an inert guard. Enabled, a scope costs two
//! `Instant::now()` calls plus two short uncontended mutex sections on
//! the thread's own trie — O(100 ns), amortized by instrumenting at
//! *call* granularity (a GEMM strip, an attention batch, a simulator
//! event), never per element. The instrumented hot paths budget < 3%
//! end-to-end overhead, enforced by `examples/profile_fleet.rs` and the
//! CI `prof` job. Steady state allocates nothing: trie nodes are
//! created on a path's first visit and reused forever after.
//!
//! # Folding and export
//!
//! [`snapshot`] merges every thread's trie into a [`Profile`]:
//! [`Profile::folded`] emits standard `a;b;c <self_ns>` folded-stack
//! lines, and [`Profile::flamegraph_svg`] renders a self-contained
//! icicle-style flamegraph SVG (no JavaScript, no external tools —
//! same offline-renderable style as `observe::dashboard`). Self time is
//! defined as `total − Σ children`, so leaf self times re-sum to the
//! root totals *exactly* — the re-sum invariant the acceptance gate
//! checks.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod flame;

/// Global gate. Off by default: unprofiled runs pay one relaxed load
/// per [`scope`] call.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns profiling on or off process-wide. Scopes opened while enabled
/// still record on drop after a disable (their timing already started);
/// scopes opened while disabled stay inert.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether profiling is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One node of a thread's call-stack trie.
struct Node {
    name: &'static str,
    parent: u32,
    children: Vec<u32>,
    total_ns: u64,
    calls: u64,
}

/// A thread's trie. Node 0 is the synthetic root (empty name). The
/// mutex is effectively thread-private on the hot path — only
/// [`snapshot`] and [`reset`] lock it from outside.
struct ThreadSlot {
    nodes: Mutex<Vec<Node>>,
}

impl ThreadSlot {
    fn new() -> Self {
        ThreadSlot {
            nodes: Mutex::new(vec![Node {
                name: "",
                parent: 0,
                children: Vec::new(),
                total_ns: 0,
                calls: 0,
            }]),
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadSlot>>> {
    static REG: OnceLock<Mutex<Vec<Arc<ThreadSlot>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// This thread's trie, registered globally on first use. The
    /// registry keeps an `Arc`, so totals survive thread exit (and
    /// persistent pool workers are snapshot live).
    static SLOT: Arc<ThreadSlot> = {
        let slot = Arc::new(ThreadSlot::new());
        registry().lock().expect("profiler lock").push(Arc::clone(&slot));
        slot
    };
    /// Index of the current node in this thread's trie.
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// Finds `name` among `parent`'s children, creating the child node on a
/// path's first visit (the only allocation the profiler ever does).
fn find_or_add_child(nodes: &mut Vec<Node>, parent: u32, name: &'static str) -> u32 {
    // Linear scan: fan-out per node is small (a handful of callees) and
    // names are short static strings.
    for i in 0..nodes[parent as usize].children.len() {
        let c = nodes[parent as usize].children[i];
        if nodes[c as usize].name == name {
            return c;
        }
    }
    let idx = u32::try_from(nodes.len()).expect("profiler trie under 4G nodes");
    nodes.push(Node {
        name,
        parent,
        children: Vec::new(),
        total_ns: 0,
        calls: 0,
    });
    nodes[parent as usize].children.push(idx);
    idx
}

/// RAII guard for one profiled scope (see [`scope`]).
///
/// `!Send` by construction: the guard must drop on the thread that
/// opened it, which keeps that thread's trie depth-balanced under early
/// returns, `?`, and panic unwinds alike.
#[must_use = "a profiling scope only measures while its guard lives"]
pub struct ScopeGuard {
    live: Option<LiveScope>,
    _not_send: PhantomData<*const ()>,
}

struct LiveScope {
    slot: Arc<ThreadSlot>,
    node: u32,
    parent: u32,
    start: Instant,
}

/// Enters a profiled scope named `name`, returning the guard that ends
/// it. Nested calls build folded paths; see the module docs for the
/// cost model.
#[inline]
pub fn scope(name: &'static str) -> ScopeGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return ScopeGuard {
            live: None,
            _not_send: PhantomData,
        };
    }
    scope_live(name)
}

#[inline(never)]
fn scope_live(name: &'static str) -> ScopeGuard {
    SLOT.with(|slot| {
        let parent = CURRENT.with(Cell::get);
        let node = find_or_add_child(&mut slot.nodes.lock().expect("profiler lock"), parent, name);
        CURRENT.with(|c| c.set(node));
        ScopeGuard {
            live: Some(LiveScope {
                slot: Arc::clone(slot),
                node,
                parent,
                start: Instant::now(),
            }),
            _not_send: PhantomData,
        }
    })
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let dt = u64::try_from(live.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            {
                let mut nodes = live.slot.nodes.lock().expect("profiler lock");
                let n = &mut nodes[live.node as usize];
                n.total_ns = n.total_ns.saturating_add(dt);
                n.calls += 1;
            }
            CURRENT.with(|c| c.set(live.parent));
        }
    }
}

/// Current scope depth on the calling thread (0 outside any scope).
/// Exists so tests can assert guards restored the stack.
#[must_use]
pub fn depth() -> usize {
    let cur = CURRENT.with(Cell::get);
    if cur == 0 {
        return 0;
    }
    SLOT.with(|slot| {
        let nodes = slot.nodes.lock().expect("profiler lock");
        let mut d = 0;
        let mut at = cur;
        while at != 0 {
            at = nodes[at as usize].parent;
            d += 1;
        }
        d
    })
}

/// Zeroes every accumulated total and call count across all threads.
/// Trie *structure* is kept (guards already in flight still hold node
/// indices), so a reset between phases is safe while scopes are open —
/// open scopes simply report their remaining time into the new window.
pub fn reset() {
    let reg = registry().lock().expect("profiler lock");
    for slot in reg.iter() {
        let mut nodes = slot.nodes.lock().expect("profiler lock");
        for n in nodes.iter_mut() {
            n.total_ns = 0;
            n.calls = 0;
        }
    }
}

/// One merged node of a [`Profile`]: accumulated time and calls for a
/// folded path, across all threads that visited it.
#[derive(Debug, Clone)]
pub struct NodeStat {
    /// Scope name (one path segment).
    pub name: String,
    /// Total wall nanoseconds spent in this path, children included.
    pub total_ns: u64,
    /// Times this path was entered.
    pub calls: u64,
    /// Child scopes, sorted by name (deterministic exports).
    pub children: Vec<NodeStat>,
}

impl NodeStat {
    /// Time attributed to this node itself: `total − Σ children`,
    /// saturating (clock jitter can make children sum a hair past the
    /// parent; attribution never goes negative).
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        let kids: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(kids)
    }
}

/// A point-in-time merge of every thread's trie (see [`snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Top-level scopes, sorted by name.
    pub roots: Vec<NodeStat>,
}

#[derive(Default)]
struct MergeNode {
    total_ns: u64,
    calls: u64,
    kids: BTreeMap<&'static str, MergeNode>,
}

fn merge_thread(nodes: &[Node], at: u32, into: &mut MergeNode) {
    let n = &nodes[at as usize];
    into.total_ns += n.total_ns;
    into.calls += n.calls;
    for &c in &n.children {
        let name = nodes[c as usize].name;
        merge_thread(nodes, c, into.kids.entry(name).or_default());
    }
}

fn freeze(name: &str, m: &MergeNode) -> NodeStat {
    NodeStat {
        name: name.to_string(),
        total_ns: m.total_ns,
        calls: m.calls,
        children: m.kids.iter().map(|(k, v)| freeze(k, v)).collect(),
    }
}

/// Merges all threads' tries into one [`Profile`]. Safe to call while
/// scopes are being recorded (each thread's trie is locked briefly);
/// times of still-open scopes are not included until their guards drop.
#[must_use]
pub fn snapshot() -> Profile {
    let reg = registry().lock().expect("profiler lock");
    let mut root = MergeNode::default();
    for slot in reg.iter() {
        let nodes = slot.nodes.lock().expect("profiler lock");
        merge_thread(&nodes, 0, &mut root);
    }
    Profile {
        roots: root.kids.iter().map(|(k, v)| freeze(k, v)).collect(),
    }
}

impl Profile {
    /// Total profiled nanoseconds: the sum over top-level scopes.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Sum of self time over every node. Equals [`Profile::total_ns`]
    /// up to the per-node saturation in [`NodeStat::self_ns`] — the
    /// "leaves re-sum to the total" invariant.
    #[must_use]
    pub fn self_ns_sum(&self) -> u64 {
        fn walk(n: &NodeStat) -> u64 {
            n.self_ns() + n.children.iter().map(walk).sum::<u64>()
        }
        self.roots.iter().map(walk).sum()
    }

    /// Number of distinct folded paths.
    #[must_use]
    pub fn node_count(&self) -> usize {
        fn walk(n: &NodeStat) -> usize {
            1 + n.children.iter().map(walk).sum::<usize>()
        }
        self.roots.iter().map(walk).sum()
    }

    /// Looks a node up by its folded path.
    #[must_use]
    pub fn find(&self, path: &[&str]) -> Option<&NodeStat> {
        let (first, rest) = path.split_first()?;
        let mut node = self.roots.iter().find(|r| r.name == *first)?;
        for seg in rest {
            node = node.children.iter().find(|c| c.name == *seg)?;
        }
        Some(node)
    }

    /// Standard folded-stack text: one `a;b;c <self_ns>` line per node
    /// with nonzero self time (leaves always emitted), sorted by path.
    /// Feedable to any flamegraph tooling; [`Profile::flamegraph_svg`]
    /// renders the same data without external tools.
    #[must_use]
    pub fn folded(&self) -> String {
        fn walk(prefix: &str, n: &NodeStat, out: &mut String) {
            let path = if prefix.is_empty() {
                n.name.clone()
            } else {
                format!("{prefix};{}", n.name)
            };
            let own = n.self_ns();
            if own > 0 || n.children.is_empty() {
                out.push_str(&path);
                out.push(' ');
                out.push_str(&own.to_string());
                out.push('\n');
            }
            for c in &n.children {
                walk(&path, c, out);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            walk("", r, &mut out);
        }
        out
    }

    /// Renders a self-contained icicle-style flamegraph SVG: no
    /// JavaScript, no external fonts or tools, offline-renderable —
    /// the same constraints as `observe::dashboard`. Hover any frame
    /// for the full path, totals, self time, and call count.
    #[must_use]
    pub fn flamegraph_svg(&self, title: &str) -> String {
        flame::render(self, title)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global gate / registry.
    fn lock_env() -> std::sync::MutexGuard<'static, ()> {
        static ENV: OnceLock<std::sync::Mutex<()>> = OnceLock::new();
        ENV.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn spin_ns(ns: u64) {
        let t = Instant::now();
        while u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_scopes_are_inert() {
        let _env = lock_env();
        set_enabled(false);
        reset();
        {
            let _a = scope("inert_outer");
            let _b = scope("inert_inner");
        }
        assert_eq!(depth(), 0);
        assert!(snapshot().find(&["inert_outer"]).is_none());
    }

    #[test]
    fn nesting_builds_folded_paths() {
        let _env = lock_env();
        set_enabled(true);
        reset();
        {
            let _a = scope("nest_outer");
            spin_ns(200_000);
            for _ in 0..3 {
                let _b = scope("nest_inner");
                spin_ns(50_000);
            }
        }
        set_enabled(false);
        assert_eq!(depth(), 0);
        let p = snapshot();
        let outer = p.find(&["nest_outer"]).expect("outer recorded");
        let inner = p.find(&["nest_outer", "nest_inner"]).expect("nested path");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 3);
        assert!(outer.total_ns >= inner.total_ns, "parent covers child");
        assert!(outer.self_ns() > 0, "outer kept self time");
        let folded = p.folded();
        assert!(folded.contains("nest_outer;nest_inner "));
    }

    #[test]
    fn early_return_still_balances() {
        let _env = lock_env();
        set_enabled(true);
        reset();
        fn maybe(early: bool) -> u32 {
            let _g = scope("early_fn");
            if early {
                return 1;
            }
            let _h = scope("early_tail");
            2
        }
        assert_eq!(maybe(true), 1);
        assert_eq!(maybe(false), 2);
        set_enabled(false);
        assert_eq!(depth(), 0);
        let p = snapshot();
        assert_eq!(p.find(&["early_fn"]).expect("fn node").calls, 2);
        assert_eq!(p.find(&["early_fn", "early_tail"]).expect("tail").calls, 1);
    }

    #[test]
    fn threads_merge_into_one_profile() {
        let _env = lock_env();
        set_enabled(true);
        reset();
        let spawned = std::thread::spawn(|| {
            let _g = scope("merge_shared");
            spin_ns(80_000);
        });
        {
            let _g = scope("merge_shared");
            spin_ns(80_000);
        }
        spawned.join().expect("profiled thread");
        set_enabled(false);
        let p = snapshot();
        let n = p.find(&["merge_shared"]).expect("merged node");
        assert_eq!(n.calls, 2, "both threads' visits merged");
        assert!(n.total_ns >= 160_000);
    }

    #[test]
    fn self_times_resum_to_total() {
        let _env = lock_env();
        set_enabled(true);
        reset();
        {
            let _a = scope("resum_a");
            spin_ns(100_000);
            let _b = scope("resum_b");
            spin_ns(100_000);
        }
        {
            let _c = scope("resum_c");
            spin_ns(50_000);
        }
        set_enabled(false);
        let p = snapshot();
        assert_eq!(p.self_ns_sum(), p.total_ns(), "exact by construction");
    }

    #[test]
    fn reset_zeroes_but_keeps_structure() {
        let _env = lock_env();
        set_enabled(true);
        reset();
        {
            let _a = scope("reset_me");
            spin_ns(10_000);
        }
        reset();
        let p = snapshot();
        let n = p.find(&["reset_me"]).expect("structure kept");
        assert_eq!((n.total_ns, n.calls), (0, 0));
        set_enabled(false);
    }

    #[test]
    fn flamegraph_svg_is_self_contained_and_escaped() {
        let _env = lock_env();
        set_enabled(true);
        reset();
        {
            let _a = scope("svg_root");
            spin_ns(60_000);
            let _b = scope("svg<&\"kid\">");
            spin_ns(60_000);
        }
        set_enabled(false);
        let svg = snapshot().flamegraph_svg("unit \"test\" <graph>");
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(!svg.contains("<script"), "no JS");
        assert!(
            !svg.contains("href") && !svg.contains("@import"),
            "no external refs"
        );
        assert!(svg.contains("svg&lt;&amp;&quot;kid&quot;&gt;"), "escaped");
        assert!(!svg.contains("svg<&"), "raw label never embedded");
    }
}
