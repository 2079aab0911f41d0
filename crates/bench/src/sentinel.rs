//! The one BENCH record and the perf-regression sentinel: a
//! provenance-stamped, append-only bench-history ledger plus a
//! noise-aware comparator.
//!
//! - **Record** — every bench writer builds one [`BenchRecord`]: a
//!   [`Provenance`] stamp (git sha, rustc, CPU model, host cores, seed,
//!   config label) plus named metrics, `{provenance, metrics: {name:
//!   {value, unit}}}`. Names are dotted with the layer first
//!   (`decode.batch16_tok_s`, `overhead.pct`, `sentinel.regressed`);
//!   flags are 0/1 metrics with unit `bool`. [`BenchRecord::save`] writes
//!   it as `BENCH_<name>.json` at the repository root and appends it to
//!   the ledger.
//! - **Ledger** — `BENCH_history.jsonl` at the repository root holds
//!   one compact record per line, append-only, so history survives every
//!   run and merges trivially.
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

/// The repository root, where every `BENCH_*.json` lives.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The bench-history ledger at the repository root.
const LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");

/// The comparator's noise multiplier `k` (see [`check`]) for every
/// record [`BenchRecord::judge`] judges.
const SENTINEL_K: f64 = 3.0;

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
    /// Free-form config label: the model, workload or fleet measured.
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

    fn value(&self) -> Value {
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

/// One measured number of a [`BenchRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, layer first.
    pub name: String,
    /// The number. JSON has no NaN, so a NaN (a baseline with no
    /// history) is written as `null` and read back as NaN.
    pub value: f64,
    /// Unit (`s`, `ms`, `tok/s`, `req/s`, `frac`, `%`, `count`, `bool`, …).
    pub unit: String,
}

/// A BENCH file and a ledger line: a provenance stamp plus named
/// metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Where the numbers came from.
    pub provenance: Provenance,
    /// The metrics in insertion order.
    pub metrics: Vec<Metric>,
}

impl BenchRecord {
    /// An empty record stamped with `provenance`.
    #[must_use]
    pub fn new(provenance: Provenance) -> Self {
        BenchRecord {
            provenance,
            metrics: Vec::new(),
        }
    }

    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) -> &mut Self {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        });
        self
    }

    /// Looks up a metric's value by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn value(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let entry = Value::Object(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.clone())),
            ]);
            (m.name.clone(), entry)
        });
        Value::Object(vec![
            ("provenance".into(), self.provenance.value()),
            ("metrics".into(), Value::Object(metrics.collect())),
        ])
    }

    /// One compact JSON line (no trailing newline): the ledger's form.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (cannot happen for this shape).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(&self.value()).expect("serialize bench record")
    }

    /// Parses a record from JSON text, a ledger line or a whole
    /// `BENCH_*.json` file; `None` on malformed input (a corrupt line
    /// skips, it does not poison the ledger).
    #[must_use]
    pub fn from_json(text: &str) -> Option<Self> {
        let doc: Value = serde_json::from_str(text.trim()).ok()?;
        let provenance = Provenance::from_value(&doc["provenance"])?;
        let metrics = doc["metrics"]
            .as_object()?
            .iter()
            .map(|(name, m)| {
                let value = match &m["value"] {
                    Value::Null => f64::NAN,
                    v => v.as_f64()?,
                };
                Some(Metric {
                    name: name.clone(),
                    value,
                    unit: m["unit"].as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(BenchRecord {
            provenance,
            metrics,
        })
    }

    /// Writes the record as pretty JSON to `BENCH_<name>.json` at the
    /// repository root, without touching the ledger.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (cannot happen for this shape).
    pub fn write(&self, name: &str) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(&self.value()).expect("serialize bench record");
        std::fs::write(format!("{ROOT}/BENCH_{name}.json"), json + "\n")
    }

    /// [`BenchRecord::write`]s `BENCH_<name>.json` and appends the record
    /// to the ledger: the save path of every bench writer.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, name: &str) -> std::io::Result<()> {
        self.write(name)?;
        append_record(LEDGER, self)
    }

    /// Judges this record against the ledger's same-host history over
    /// [`KEY_METRICS`], prints the verdicts, and adds them as metrics:
    /// `sentinel.history_len`, `sentinel.k`, `sentinel.regressed`, and
    /// per gated metric `sentinel.<metric>.{baseline_median, noise_sigma,
    /// current, threshold, samples, enough_history, regressed}`. Returns
    /// whether any metric regressed.
    pub fn judge(&mut self) -> bool {
        let history = load_ledger(LEDGER);
        let verdicts = check(&history, self, KEY_METRICS, SENTINEL_K);
        let regressed = verdicts.iter().any(|v| v.regressed);
        println!(
            "  sentinel vs {} ledger records:\n{}",
            history.len(),
            render_verdicts(&verdicts)
        );
        let flag = |b: bool| f64::from(u8::from(b));
        self.push("sentinel.history_len", history.len() as f64, "count")
            .push("sentinel.k", SENTINEL_K, "x")
            .push("sentinel.regressed", flag(regressed), "bool");
        for (v, spec) in verdicts.iter().zip(KEY_METRICS) {
            let (m, unit) = (&v.metric, spec.unit);
            self.push(
                format!("sentinel.{m}.baseline_median"),
                v.baseline_median,
                unit,
            )
            .push(format!("sentinel.{m}.noise_sigma"), v.noise_sigma, unit)
            .push(format!("sentinel.{m}.current"), v.current, unit)
            .push(format!("sentinel.{m}.threshold"), v.threshold, unit)
            .push(format!("sentinel.{m}.samples"), v.samples as f64, "count")
            .push(
                format!("sentinel.{m}.enough_history"),
                flag(v.enough_history),
                "bool",
            )
            .push(format!("sentinel.{m}.regressed"), flag(v.regressed), "bool");
        }
        regressed
    }
}

/// Appends one record to the ledger at `path`, creating the file on
/// first use. Append-only by construction: existing lines are never
/// rewritten.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable path).
fn append_record(path: &str, record: &BenchRecord) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", record.to_json_line())
}

/// Loads every parseable record from the ledger; a missing file is an
/// empty history, malformed lines are skipped.
#[must_use]
fn load_ledger(path: &str) -> Vec<BenchRecord> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(BenchRecord::from_json)
        .collect()
}

/// How to judge one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Ledger metric name.
    pub name: &'static str,
    /// The metric's unit, which its verdict's figures share.
    pub unit: &'static str,
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
        unit: "tok/s",
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
        unit: "req/s",
        higher_is_better: true,
        rel_floor: 0.25,
        abs_floor: 0.0,
        rel_cap: 0.5,
    },
    MetricSpec {
        name: "prof_overhead_pct",
        unit: "%",
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
        unit: "frac",
        higher_is_better: true,
        rel_floor: 0.05,
        abs_floor: 0.02,
        rel_cap: 0.1,
    },
    MetricSpec {
        name: "cached_goodput_rps",
        unit: "req/s",
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
fn render_verdicts(verdicts: &[Verdict]) -> String {
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

    /// A record of `metrics`, each in its [`KEY_METRICS`] unit.
    fn record(provenance: Provenance, metrics: &[(&str, f64)]) -> BenchRecord {
        let mut rec = BenchRecord::new(provenance);
        for &(name, value) in metrics {
            let spec = KEY_METRICS.iter().find(|s| s.name == name).expect("gated");
            rec.push(name, value, spec.unit);
        }
        rec
    }

    /// Deterministic ±2% jitter around `base`.
    fn jitter(base: f64, i: u64) -> f64 {
        let r = ((i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) % 4001) as f64 / 4000.0;
        base * (0.98 + 0.04 * r)
    }

    fn fixture_ledger(n: u64) -> Vec<BenchRecord> {
        (0..n)
            .map(|i| {
                record(
                    prov(i),
                    &[
                        ("decode_tok_s", jitter(1000.0, i)),
                        ("sim_req_s", jitter(1.4e6, i.wrapping_add(7))),
                        ("prof_overhead_pct", 1.0 + 0.3 * jitter(1.0, i) - 0.3),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn record_round_trips_through_json_line() {
        let mut rec = fixture_ledger(1).remove(0);
        rec.push("sentinel.decode_tok_s.baseline_median", f64::NAN, "tok/s");
        let line = rec.to_json_line();
        assert!(!line.contains('\n'), "one line per record");
        let back = BenchRecord::from_json(&line).expect("parse own output");
        assert_eq!(back.provenance, rec.provenance);
        assert_eq!(back.metrics.len(), rec.metrics.len());
        for (m1, m2) in back.metrics.iter().zip(&rec.metrics) {
            assert_eq!((&m1.name, &m1.unit), (&m2.name, &m2.unit));
            assert!(m1.value == m2.value || (m1.value.is_nan() && m2.value.is_nan()));
        }
    }

    /// Every committed `BENCH_*.json` and every ledger line is one
    /// record, with each metric named once.
    #[test]
    fn committed_bench_files_parse_as_records() {
        let mut texts: Vec<(String, String)> = std::fs::read_dir(ROOT)
            .expect("repository root")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf8")
            })
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .map(|f| {
                let text = std::fs::read_to_string(format!("{ROOT}/{f}")).expect("read");
                (f, text)
            })
            .collect();
        assert!(texts.len() >= 7, "BENCH files: {texts:?}");
        let ledger = std::fs::read_to_string(LEDGER).expect("read the ledger");
        texts.extend(
            ledger
                .lines()
                .enumerate()
                .map(|(i, l)| (format!("ledger line {}", i + 1), l.to_string())),
        );
        for (what, text) in &texts {
            let rec = BenchRecord::from_json(text).unwrap_or_else(|| panic!("{what} is no record"));
            assert!(!rec.metrics.is_empty(), "{what} has no metrics");
            let mut names: Vec<&str> = rec.metrics.iter().map(|m| m.name.as_str()).collect();
            names.sort_unstable();
            let n = names.len();
            names.dedup();
            assert_eq!(names.len(), n, "{what} repeats a metric name");
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
        let slow = record(
            prov(99),
            &[
                ("decode_tok_s", 900.0), // 10% below the ~1000 baseline
                ("sim_req_s", 1.4e6),
                ("prof_overhead_pct", 1.0),
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
        let rerun = record(
            prov(77),
            &[
                ("decode_tok_s", jitter(1000.0, 77)),
                ("sim_req_s", jitter(1.4e6, 78)),
                ("prof_overhead_pct", 1.4),
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
                record(
                    prov(i),
                    &[(
                        "decode_tok_s",
                        jitter(1000.0, i) + ((i % 3) as f64 - 1.0) * 100.0,
                    )],
                )
            })
            .collect();
        let slow = record(prov(99), &[("decode_tok_s", 900.0)]);
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
        let bloated = record(
            prov(50),
            &[
                ("decode_tok_s", 1000.0),
                ("sim_req_s", 1.4e6),
                ("prof_overhead_pct", 8.0), // way past the ~1% baseline
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
        let awful = record(
            prov(1),
            &[
                ("decode_tok_s", 1.0),
                ("sim_req_s", 1.0),
                ("prof_overhead_pct", 99.0),
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
        let slow = record(prov(99), &[("decode_tok_s", 900.0)]);
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
        let line = r#"{"provenance":{"git_sha":"867d2c2","rustc":"rustc 1.95.0","host_cores":1,"seed":7,"config":"c","unix_time_s":1786220796},"metrics":{"sim_req_s":{"value":1345271.1,"unit":"req/s"}}}"#;
        let old = BenchRecord::from_json(line).expect("pre-cpu_model record parses");
        assert_eq!(old.provenance.cpu_model, None);
        assert!(!old.provenance.same_host(&old.provenance));
        let back = BenchRecord::from_json(&old.to_json_line()).expect("round trip");
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
