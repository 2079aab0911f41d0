//! The perf-regression sentinel: a provenance-stamped, append-only
//! bench-history ledger plus a noise-aware comparator.
//!
//! Every `BENCH_*.json` in this repo used to overwrite the previous
//! run, so the perf trajectory across PRs was invisible and regressions
//! landed silently. The sentinel fixes both halves:
//!
//! - **Ledger** — each bench run appends one JSON line to
//!   `BENCH_history.jsonl` ([`append_record`]): a [`Provenance`] stamp
//!   (git sha, rustc, CPU model, host cores, seed, config) plus the
//!   run's key metrics. Append-only and newline-delimited, so history
//!   survives every run and merges trivially.
//! - **Comparator** — [`check`] compares a fresh record against the
//!   ledger records from its own host (same CPU model and core count)
//!   per metric: the baseline is the *median* of those prior runs and
//!   the noise scale is the MAD (median absolute deviation, scaled by
//!   1.4826 to a σ-equivalent). A metric regresses only when it worsens
//!   past `max(k·σ_MAD, rel_floor·|baseline|, abs_floor)` in its bad
//!   direction — so ±2% run-to-run jitter passes while a real 10%
//!   slowdown is flagged. Medians and MAD are robust to the occasional
//!   interference spike a shared machine records; an optional
//!   [`MetricSpec::rel_cap`] bounds the threshold from above so a
//!   ledger seeded under heavy interference cannot widen `k·σ_MAD`
//!   until real regressions pass unremarked.
//!
//! A host with fewer than [`MIN_BASELINE`] records of its own gets no
//! call: a baseline measured on other hardware says nothing about this
//! one.

use std::io::Write as _;

use serde::Value;

/// Minimum prior samples of a metric from the current record's host
/// before the comparator will call a regression: below this, MAD is
/// meaningless and everything passes (reported via
/// [`Verdict::enough_history`]).
pub const MIN_BASELINE: usize = 3;

/// MAD → σ equivalence factor for normal noise.
const MAD_SIGMA: f64 = 1.4826;

/// Where this run came from — enough to decide whether two ledger
/// entries are comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// `git rev-parse HEAD` at build/run time (env `GIT_SHA` wins, so
    /// CI can stamp the exact commit under test); `"unknown"` offline.
    pub git_sha: String,
    /// `rustc --version` (env `RUSTC_VERSION` wins).
    pub rustc: String,
    /// The CPU's `model name` from `/proc/cpuinfo`. `None` where that
    /// cannot be read, and in ledger records written before the field
    /// existed; such records match no host.
    pub cpu_model: Option<String>,
    /// Host parallelism observed at run time.
    pub host_cores: u64,
    /// Workload seed the run used.
    pub seed: u64,
    /// Free-form config label (model config, batch, request count).
    pub config: String,
    /// Unix seconds when the record was captured.
    pub unix_time_s: u64,
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let line = s.lines().next()?.trim().to_string();
    if line.is_empty() {
        None
    } else {
        Some(line)
    }
}

/// The first `model name` in `/proc/cpuinfo` (Linux).
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    let model = line.split_once(':')?.1.trim();
    (!model.is_empty()).then(|| model.to_string())
}

impl Provenance {
    /// Captures the current environment. Never fails: fields that
    /// cannot be determined (no git, no rustc on PATH) say `"unknown"`.
    #[must_use]
    pub fn capture(config: &str, seed: u64) -> Self {
        let git_sha = std::env::var("GIT_SHA")
            .ok()
            .filter(|s| !s.is_empty())
            .or_else(|| command_line("git", &["rev-parse", "HEAD"]))
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::env::var("RUSTC_VERSION")
            .ok()
            .filter(|s| !s.is_empty())
            .or_else(|| command_line("rustc", &["--version"]))
            .unwrap_or_else(|| "unknown".to_string());
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(0);
        let unix_time_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Provenance {
            git_sha,
            rustc,
            cpu_model: cpu_model(),
            host_cores,
            seed,
            config: config.to_string(),
            unix_time_s,
        }
    }

    /// Whether two records were measured on the same kind of host: both
    /// know their CPU model, and the models and core counts match.
    fn same_host(&self, other: &Provenance) -> bool {
        self.cpu_model.is_some()
            && self.cpu_model == other.cpu_model
            && self.host_cores == other.host_cores
    }

    /// The stamp as a JSON object — embed under a `"provenance"` key in
    /// any `BENCH_*.json` document.
    #[must_use]
    pub fn value(&self) -> Value {
        Value::Object(vec![
            ("git_sha".into(), Value::Str(self.git_sha.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            (
                "cpu_model".into(),
                self.cpu_model.clone().map_or(Value::Null, Value::Str),
            ),
            ("host_cores".into(), Value::UInt(self.host_cores)),
            ("seed".into(), Value::UInt(self.seed)),
            ("config".into(), Value::Str(self.config.clone())),
            ("unix_time_s".into(), Value::UInt(self.unix_time_s)),
        ])
    }

    fn from_value(v: &Value) -> Option<Self> {
        Some(Provenance {
            git_sha: v["git_sha"].as_str()?.to_string(),
            rustc: v["rustc"].as_str()?.to_string(),
            cpu_model: v["cpu_model"].as_str().map(str::to_string),
            host_cores: v["host_cores"].as_u64()?,
            seed: v["seed"].as_u64()?,
            config: v["config"].as_str()?.to_string(),
            unix_time_s: v["unix_time_s"].as_u64()?,
        })
    }
}

/// One ledger line: a provenance stamp plus named metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Where the numbers came from.
    pub provenance: Provenance,
    /// `(metric name, value)` pairs, insertion-ordered.
    pub metrics: Vec<(String, f64)>,
}

impl BenchRecord {
    /// A record stamping `metrics` with `provenance`.
    #[must_use]
    pub fn new(provenance: Provenance, metrics: Vec<(String, f64)>) -> Self {
        BenchRecord {
            provenance,
            metrics,
        }
    }

    /// Looks up a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// One compact JSON line (no trailing newline).
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (cannot happen for this shape).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let doc = Value::Object(vec![
            ("provenance".into(), self.provenance.value()),
            (
                "metrics".into(),
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Float(*v)))
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string(&doc).expect("serialize bench record")
    }

    /// Parses one ledger line; `None` on malformed input (a corrupt
    /// line skips, it does not poison the ledger).
    #[must_use]
    pub fn from_json_line(line: &str) -> Option<Self> {
        let doc: Value = serde_json::from_str(line.trim()).ok()?;
        let provenance = Provenance::from_value(&doc["provenance"])?;
        let metrics = doc["metrics"]
            .as_object()?
            .iter()
            .map(|(n, v)| Some((n.clone(), v.as_f64()?)))
            .collect::<Option<Vec<_>>>()?;
        Some(BenchRecord {
            provenance,
            metrics,
        })
    }
}

/// Appends one record to the ledger at `path`, creating the file on
/// first use. Append-only by construction: existing lines are never
/// rewritten.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable path).
pub fn append_record(path: &str, record: &BenchRecord) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", record.to_json_line())
}

/// Loads every parseable record from the ledger; a missing file is an
/// empty history, malformed lines are skipped.
#[must_use]
pub fn load_ledger(path: &str) -> Vec<BenchRecord> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(BenchRecord::from_json_line)
        .collect()
}

/// How to judge one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Ledger metric name.
    pub name: &'static str,
    /// `true` when larger is better (throughputs); `false` when smaller
    /// is better (latencies, overhead percentages).
    pub higher_is_better: bool,
    /// Noise floor as a fraction of |baseline| — guards metrics whose
    /// MAD happens to be tiny in a quiet ledger.
    pub rel_floor: f64,
    /// Absolute noise floor in the metric's own unit — guards
    /// near-zero metrics where a relative floor vanishes.
    pub abs_floor: f64,
    /// Hard ceiling on the threshold as a fraction of |baseline|
    /// (`0.0` = no ceiling). A ledger seeded under heavy interference
    /// can carry a MAD so wide that `k·σ` would wave real regressions
    /// through; the cap says "worsening past this much always flags —
    /// a human looks", no matter how noisy history claims to be.
    pub rel_cap: f64,
}

/// The key metrics the CI gate watches, per the roadmap: real-engine
/// decode throughput, fleet-simulator throughput, and the profiler's
/// own overhead.
pub const KEY_METRICS: &[MetricSpec] = &[
    // Decode throughput comes from per-step minima (see
    // `examples/profile_fleet.rs`), so its genuine noise band is a few
    // percent; the 8% cap keeps a noisily-seeded ledger from hiding the
    // 10% regressions the sentinel exists to catch.
    MetricSpec {
        name: "decode_tok_s",
        higher_is_better: true,
        rel_floor: 0.05,
        abs_floor: 0.0,
        rel_cap: 0.08,
    },
    // Sim throughput is one continuous wall-clock window: unlike the
    // decode metric (per-step minima filter interference out), a shared
    // host swings it ±15-20% run to run, so the floor is set to catch
    // *architectural* regressions — an accidental O(n²) event loop, a
    // lost fast path — not scheduler weather.
    MetricSpec {
        name: "sim_req_s",
        higher_is_better: true,
        rel_floor: 0.25,
        abs_floor: 0.0,
        rel_cap: 0.5,
    },
    MetricSpec {
        name: "prof_overhead_pct",
        higher_is_better: false,
        rel_floor: 0.0,
        abs_floor: 1.0,
        rel_cap: 0.0,
    },
    // Prefix-cache metrics (`examples/prefix_goodput.rs`). The hit rate
    // is a property of the workload + cache logic, not the host, so its
    // noise band is tight; warm goodput shares the sim metric's
    // wall-clock-window sensitivity and gets the same wide floor.
    MetricSpec {
        name: "prefix_hit_rate",
        higher_is_better: true,
        rel_floor: 0.05,
        abs_floor: 0.02,
        rel_cap: 0.1,
    },
    MetricSpec {
        name: "cached_goodput_rps",
        higher_is_better: true,
        rel_floor: 0.25,
        abs_floor: 0.0,
        rel_cap: 0.5,
    },
];

/// One metric's judgement (see [`check`]).
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Metric name.
    pub metric: String,
    /// Median of prior ledger values (NaN with no history).
    pub baseline_median: f64,
    /// σ-scaled MAD of prior values (NaN with no history).
    pub noise_sigma: f64,
    /// The fresh run's value (NaN when the record lacks the metric).
    pub current: f64,
    /// Worsening beyond this flags a regression.
    pub threshold: f64,
    /// Prior same-host samples the baseline rests on.
    pub samples: usize,
    /// Whether `samples >= MIN_BASELINE` (no call is made below it).
    pub enough_history: bool,
    /// The call: worsened past the threshold with enough history.
    pub regressed: bool,
}

/// Median of an ascending-sorted slice (NaN when empty).
pub(crate) fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Judges `current` against the `history` records from its own host (same
/// CPU model and core count) for each spec'd metric. Records from other
/// hosts, or missing a metric, don't contribute to its baseline.
#[must_use]
pub fn check(
    history: &[BenchRecord],
    current: &BenchRecord,
    specs: &[MetricSpec],
    k: f64,
) -> Vec<Verdict> {
    specs
        .iter()
        .map(|spec| {
            let mut prior: Vec<f64> = history
                .iter()
                .filter(|r| r.provenance.same_host(&current.provenance))
                .filter_map(|r| r.metric(spec.name))
                .filter(|v| v.is_finite())
                .collect();
            prior.sort_by(f64::total_cmp);
            let samples = prior.len();
            let enough_history = samples >= MIN_BASELINE;
            let baseline = median(&prior);
            let mut devs: Vec<f64> = prior.iter().map(|v| (v - baseline).abs()).collect();
            devs.sort_by(f64::total_cmp);
            let noise_sigma = MAD_SIGMA * median(&devs);
            let cur = current.metric(spec.name).unwrap_or(f64::NAN);
            let mut threshold = (k * noise_sigma)
                .max(spec.rel_floor * baseline.abs())
                .max(spec.abs_floor);
            if spec.rel_cap > 0.0 && baseline.is_finite() {
                threshold = threshold.min(spec.rel_cap * baseline.abs());
            }
            let worsening = if spec.higher_is_better {
                baseline - cur
            } else {
                cur - baseline
            };
            let regressed = enough_history && cur.is_finite() && worsening > threshold;
            Verdict {
                metric: spec.name.to_string(),
                baseline_median: baseline,
                noise_sigma,
                current: cur,
                threshold,
                samples,
                enough_history,
                regressed,
            }
        })
        .collect()
}

/// Renders verdicts as an aligned report block.
#[must_use]
pub fn render_verdicts(verdicts: &[Verdict]) -> String {
    let mut out = String::new();
    for v in verdicts {
        let call = if !v.enough_history {
            format!(
                "PASS (only {} prior samples from this host, no call)",
                v.samples
            )
        } else if v.regressed {
            "REGRESSED".to_string()
        } else {
            "PASS".to_string()
        };
        out.push_str(&format!(
            "  {:<20} current {:>12.3}  baseline {:>12.3} (n={}, sigma {:.3})  threshold {:.3}  {}\n",
            v.metric, v.current, v.baseline_median, v.samples, v.noise_sigma, v.threshold, call
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov(seed: u64) -> Provenance {
        Provenance {
            git_sha: "deadbeef".into(),
            rustc: "rustc 1.x (test)".into(),
            cpu_model: Some("Fixture CPU @ 2.00GHz".into()),
            host_cores: 8,
            seed,
            config: "fixture".into(),
            unix_time_s: 1_700_000_000 + seed,
        }
    }

    /// Deterministic ±2% jitter around `base`.
    fn jitter(base: f64, i: u64) -> f64 {
        let r = ((i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) % 4001) as f64 / 4000.0;
        base * (0.98 + 0.04 * r)
    }

    fn fixture_ledger(n: u64) -> Vec<BenchRecord> {
        (0..n)
            .map(|i| {
                BenchRecord::new(
                    prov(i),
                    vec![
                        ("decode_tok_s".into(), jitter(1000.0, i)),
                        ("sim_req_s".into(), jitter(1.4e6, i.wrapping_add(7))),
                        ("prof_overhead_pct".into(), 1.0 + 0.3 * jitter(1.0, i) - 0.3),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn record_round_trips_through_json_line() {
        let rec = fixture_ledger(1).remove(0);
        let line = rec.to_json_line();
        assert!(!line.contains('\n'), "one line per record");
        let back = BenchRecord::from_json_line(&line).expect("parse own output");
        assert_eq!(back.provenance, rec.provenance);
        assert_eq!(back.metrics.len(), rec.metrics.len());
        for ((n1, v1), (n2, v2)) in back.metrics.iter().zip(&rec.metrics) {
            assert_eq!(n1, n2);
            assert!((v1 - v2).abs() < 1e-9);
        }
    }

    #[test]
    fn ledger_appends_and_reloads() {
        let path = std::env::temp_dir().join("sentinel_test_ledger.jsonl");
        let path = path.to_str().expect("utf8 temp path");
        let _ = std::fs::remove_file(path);
        for rec in fixture_ledger(4) {
            append_record(path, &rec).expect("append");
        }
        let loaded = load_ledger(path);
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded[3].provenance.seed, 3);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn malformed_lines_skip_not_poison() {
        let path = std::env::temp_dir().join("sentinel_test_corrupt.jsonl");
        let path = path.to_str().expect("utf8 temp path");
        let rec = fixture_ledger(1).remove(0);
        std::fs::write(
            path,
            format!("not json at all\n{}\n{{\"half\": 1\n", rec.to_json_line()),
        )
        .expect("write fixture");
        let loaded = load_ledger(path);
        assert_eq!(loaded.len(), 1, "good line survives corrupt neighbors");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn injected_ten_percent_slowdown_is_flagged() {
        let history = fixture_ledger(12);
        let slow = BenchRecord::new(
            prov(99),
            vec![
                ("decode_tok_s".into(), 900.0), // 10% below the ~1000 baseline
                ("sim_req_s".into(), 1.4e6),
                ("prof_overhead_pct".into(), 1.0),
            ],
        );
        let verdicts = check(&history, &slow, KEY_METRICS, 3.0);
        let decode = &verdicts[0];
        assert_eq!(decode.metric, "decode_tok_s");
        assert!(decode.enough_history);
        assert!(decode.regressed, "10% slowdown must flag: {decode:?}");
        assert!(!verdicts[1].regressed, "untouched metric passes");
        assert!(!verdicts[2].regressed, "untouched metric passes");
    }

    #[test]
    fn noise_only_rerun_passes() {
        let history = fixture_ledger(12);
        let rerun = BenchRecord::new(
            prov(77),
            vec![
                ("decode_tok_s".into(), jitter(1000.0, 77)),
                ("sim_req_s".into(), jitter(1.4e6, 78)),
                ("prof_overhead_pct".into(), 1.4),
            ],
        );
        let verdicts = check(&history, &rerun, KEY_METRICS, 3.0);
        for v in &verdicts {
            assert!(!v.regressed, "noise-only rerun flagged: {v:?}");
        }
    }

    #[test]
    fn noisy_ledger_cannot_hide_regression_past_the_cap() {
        // ±12% spread: 3·σ_MAD alone would be ~25% of baseline and a 10%
        // slowdown would sail through; the 8% rel_cap still catches it.
        let history: Vec<BenchRecord> = (0..12)
            .map(|i| {
                BenchRecord::new(
                    prov(i),
                    vec![(
                        "decode_tok_s".into(),
                        jitter(1000.0, i) + ((i % 3) as f64 - 1.0) * 100.0,
                    )],
                )
            })
            .collect();
        let slow = BenchRecord::new(prov(99), vec![("decode_tok_s".into(), 900.0)]);
        let verdicts = check(&history, &slow, KEY_METRICS, 3.0);
        let decode = &verdicts[0];
        assert!(
            decode.threshold <= 0.08 * decode.baseline_median + 1e-9,
            "cap bounds the threshold: {decode:?}"
        );
        assert!(decode.regressed, "capped threshold flags 10%: {decode:?}");
    }

    #[test]
    fn overhead_regression_uses_absolute_floor() {
        let history = fixture_ledger(12);
        let bloated = BenchRecord::new(
            prov(50),
            vec![
                ("decode_tok_s".into(), 1000.0),
                ("sim_req_s".into(), 1.4e6),
                ("prof_overhead_pct".into(), 8.0), // way past the ~1% baseline
            ],
        );
        let verdicts = check(&history, &bloated, KEY_METRICS, 3.0);
        assert!(
            verdicts[2].regressed,
            "overhead blowup flags: {:?}",
            verdicts[2]
        );
    }

    #[test]
    fn thin_history_never_calls_regressions() {
        let history = fixture_ledger(2); // below MIN_BASELINE
        let awful = BenchRecord::new(
            prov(1),
            vec![
                ("decode_tok_s".into(), 1.0),
                ("sim_req_s".into(), 1.0),
                ("prof_overhead_pct".into(), 99.0),
            ],
        );
        for v in check(&history, &awful, KEY_METRICS, 3.0) {
            assert!(!v.enough_history);
            assert!(!v.regressed, "no call without history: {v:?}");
        }
    }

    /// A record 10% slower than its ledger: no call against records from
    /// another host, a flag against the same records stamped with its own.
    #[test]
    fn baseline_comes_from_the_same_host_only() {
        let slow = BenchRecord::new(prov(99), vec![("decode_tok_s".into(), 900.0)]);
        let other_hosts = [
            (Some("Other CPU @ 3.00GHz"), 8),
            (Some("Fixture CPU @ 2.00GHz"), 1),
            (None, 8),
        ];
        for (model, cores) in other_hosts {
            let mut history = fixture_ledger(12);
            for r in &mut history {
                r.provenance.cpu_model = model.map(str::to_string);
                r.provenance.host_cores = cores;
            }
            let decode = &check(&history, &slow, KEY_METRICS, 3.0)[0];
            assert_eq!(decode.samples, 0, "{model:?} x{cores}: {decode:?}");
            assert!(!decode.enough_history && !decode.regressed, "{decode:?}");
        }
        let decode = &check(&fixture_ledger(12), &slow, KEY_METRICS, 3.0)[0];
        assert_eq!(decode.samples, 12);
        assert!(
            decode.regressed,
            "same-host 10% slowdown must flag: {decode:?}"
        );
    }

    #[test]
    fn records_without_cpu_model_parse_and_match_no_host() {
        let line = r#"{"provenance":{"git_sha":"867d2c2","rustc":"rustc 1.95.0","host_cores":1,"seed":7,"config":"c","unix_time_s":1786220796},"metrics":{"sim_req_s":1345271.1}}"#;
        let old = BenchRecord::from_json_line(line).expect("pre-cpu_model record parses");
        assert_eq!(old.provenance.cpu_model, None);
        assert!(!old.provenance.same_host(&old.provenance));
        let back = BenchRecord::from_json_line(&old.to_json_line()).expect("round trip");
        assert_eq!(back.provenance, old.provenance);
    }

    #[test]
    fn capture_never_fails() {
        let p = Provenance::capture("unit", 42);
        assert!(!p.git_sha.is_empty());
        assert!(!p.rustc.is_empty());
        assert_eq!((p.seed, p.config.as_str()), (42, "unit"));
    }
}
