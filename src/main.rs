//! `distserve` — command-line interface to the DistServe-RS planner and
//! serving simulator.
//!
//! ```text
//! distserve models
//! distserve plan  --model opt-66b --dataset sharegpt --rate 4 --ttft 0.4 --tpot 0.1
//! distserve serve --model opt-13b --dataset sharegpt --rate 8 --requests 500
//! distserve serve --model opt-13b --system vllm --rate 2
//! distserve sweep --model opt-13b --dataset sharegpt --rates 0.5,1,2,3
//! ```
//!
//! Argument parsing is deliberately dependency-free (`--key value` pairs
//! only); every command prints plain tables suitable for logs.

use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;

use distserve::cluster::Cluster;
use distserve::core::{rate_sweep, serve_trace, Planner, Table};
use distserve::engine::FidelityConfig;
use distserve::models::{LlamaModel, ModelArch, OptModel, ParallelismConfig, RooflineModel};
use distserve::placement::alg1::SearchParams;
use distserve::placement::deploy::Deployment;
use distserve::placement::{SloSpec, TraceSource};
use distserve::workload::Dataset;

/// Parsed `--key value` arguments.
struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{key}'"));
            };
            let Some(value) = it.next() else {
                return Err(format!("--{name} needs a value"));
            };
            values.insert(name.to_string(), value.clone());
        }
        Ok(Args { values })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    /// A rate, latency bound or duration: finite and greater than zero.
    fn get_positive(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => positive(key, v),
        }
    }

    fn get_int<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a non-negative integer, got '{v}'")),
        }
    }

    /// A count of requests or replicas: an integer of at least 1.
    fn get_count(&self, key: &str, default: u32) -> Result<u32, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!(
                    "--{key} expects an integer of at least 1, got '{v}'"
                )),
            },
        }
    }
}

/// Parses `v` as a finite number greater than zero, naming `--key` in
/// the error.
fn positive(key: &str, v: &str) -> Result<f64, String> {
    match v.trim().parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!(
            "--{key} expects a finite number greater than 0, got '{v}'"
        )),
    }
}

fn model_by_name(name: &str) -> Result<ModelArch, String> {
    let lookup: &[(&str, ModelArch)] = &[
        ("opt-1.3b", OptModel::Opt1_3B.arch()),
        ("opt-2.7b", OptModel::Opt2_7B.arch()),
        ("opt-6.7b", OptModel::Opt6_7B.arch()),
        ("opt-13b", OptModel::Opt13B.arch()),
        ("opt-30b", OptModel::Opt30B.arch()),
        ("opt-66b", OptModel::Opt66B.arch()),
        ("opt-175b", OptModel::Opt175B.arch()),
        ("llama2-7b", LlamaModel::Llama2_7B.arch()),
        ("llama2-13b", LlamaModel::Llama2_13B.arch()),
        ("llama2-70b", LlamaModel::Llama2_70B.arch()),
    ];
    lookup
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, a)| a.clone())
        .ok_or_else(|| format!("unknown model '{name}' (see `distserve models`)"))
}

fn dataset_by_name(name: &str) -> Result<Dataset, String> {
    match name {
        "sharegpt" => Ok(Dataset::ShareGpt),
        "humaneval" => Ok(Dataset::HumanEval),
        "longbench" => Ok(Dataset::LongBench),
        other => Err(format!(
            "unknown dataset '{other}' (sharegpt | humaneval | longbench)"
        )),
    }
}

fn cluster_by_spec(spec: &str) -> Result<Cluster, String> {
    // "4x8" = 4 nodes of 8 GPUs; "ib:4x8" uses 800 Gbps cross-node.
    let (high, dims) = match spec.strip_prefix("ib:") {
        Some(rest) => (true, rest),
        None => (false, spec),
    };
    let (n, m) = dims
        .split_once('x')
        .ok_or_else(|| format!("cluster spec '{spec}' should look like 4x8 or ib:4x8"))?;
    let n: u32 = n
        .parse()
        .map_err(|_| format!("bad node count in '{spec}'"))?;
    let m: u32 = m
        .parse()
        .map_err(|_| format!("bad GPU count in '{spec}'"))?;
    if n == 0 || m == 0 {
        return Err("cluster must have at least one node and one GPU".into());
    }
    Ok(if high {
        Cluster::high_affinity(n, m)
    } else if n == 1 {
        Cluster::single_node(m)
    } else {
        Cluster::new(
            n,
            m,
            distserve::models::GpuSpec::a100_80g(),
            distserve::models::LinkSpec::nvlink(),
            distserve::models::LinkSpec::ethernet_25g(),
        )
    })
}

fn engine_by_name(name: &str) -> Result<RooflineModel, String> {
    match name {
        "conservative" => Ok(RooflineModel::a100_conservative()),
        "modern" => Ok(RooflineModel::a100()),
        other => Err(format!("unknown engine '{other}' (conservative | modern)")),
    }
}

fn planner<'a>(
    cost: &'a RooflineModel,
    cluster: &'a Cluster,
    arch: ModelArch,
    args: &Args,
) -> Result<Planner<'a>, String> {
    let mut p = Planner::new(cost, cluster, arch);
    p.params = SearchParams {
        probe_requests: args.get_int("probe-requests", 256)?,
        probe_secs: args.get_positive("probe-secs", 60.0)?,
        search_iters: 6,
        ..p.params
    };
    Ok(p)
}

fn describe(deployment: &Deployment) -> String {
    match deployment {
        Deployment::Low(p) => format!(
            "DistServe-Low: prefill {} + decode {} per unit, {} unit(s), unit goodput {:.2} rps ({:.3} rps/GPU)",
            p.prefill_par,
            p.decode_par,
            p.num_units,
            p.unit_goodput,
            p.per_gpu_goodput()
        ),
        Deployment::High(p) => format!(
            "DistServe-High: prefill {} x{} ({:.2} rps each) + decode {} x{} ({:.2} rps each)",
            p.prefill.par, p.num_prefill, p.prefill.goodput, p.decode.par, p.num_decode, p.decode.goodput
        ),
        Deployment::Coloc(p) => format!(
            "colocated {} x{} ({:.2} rps each)",
            p.par, p.num_replicas, p.goodput
        ),
    }
}

fn build_deployment(
    planner: &Planner<'_>,
    args: &Args,
    dataset: Dataset,
    slo: SloSpec,
    rate: f64,
) -> Result<Deployment, String> {
    match args.get_or("system", "distserve").as_str() {
        "distserve" => planner.plan_distserve(&dataset, slo, rate),
        "distserve-high" => planner.plan_distserve_high(&dataset, slo, rate),
        "distserve-low" => planner.plan_distserve_low(&dataset, slo, rate),
        "vllm" => {
            let tp = args.get_int("tp", 1)?;
            let replicas = args.get_count("replicas", 1)?;
            planner.plan_vllm(ParallelismConfig::new(tp, 1), replicas)
        }
        "vllm++" => planner.plan_vllm_plus_plus(&dataset, slo, rate),
        other => Err(format!(
            "unknown system '{other}' (distserve | distserve-high | distserve-low | vllm | vllm++)"
        )),
    }
}

fn cmd_models() -> Result<(), String> {
    let mut table = Table::new(vec![
        "name",
        "layers",
        "hidden",
        "heads (kv)",
        "params",
        "fp16 weights",
    ]);
    for name in [
        "opt-1.3b",
        "opt-2.7b",
        "opt-6.7b",
        "opt-13b",
        "opt-30b",
        "opt-66b",
        "opt-175b",
        "llama2-7b",
        "llama2-13b",
        "llama2-70b",
    ] {
        let arch = model_by_name(name)?;
        table.row(vec![
            name.to_string(),
            arch.num_layers.to_string(),
            arch.hidden.to_string(),
            format!("{} ({})", arch.num_heads, arch.kv_heads),
            format!("{:.1}B", arch.param_count() as f64 / 1e9),
            format!("{:.0} GB", arch.weight_bytes() as f64 / 1e9),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn common_setup(
    args: &Args,
) -> Result<(ModelArch, Dataset, SloSpec, Cluster, RooflineModel), String> {
    let arch = model_by_name(&args.get_or("model", "opt-13b"))?;
    let dataset = dataset_by_name(&args.get_or("dataset", "sharegpt"))?;
    let slo = SloSpec::new(
        args.get_positive("ttft", 0.2)?,
        args.get_positive("tpot", 0.1)?,
    );
    let cluster = cluster_by_spec(&args.get_or("cluster", "4x8"))?;
    let cost = engine_by_name(&args.get_or("engine", "conservative"))?;
    Ok((arch, dataset, slo, cluster, cost))
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let (arch, dataset, slo, cluster, cost) = common_setup(args)?;
    let rate = args.get_positive("rate", 4.0)?;
    let planner = planner(&cost, &cluster, arch, args)?;
    let deployment = build_deployment(&planner, args, dataset, slo, rate)?;
    println!("placement: {}", describe(&deployment));
    let specs = planner.materialize(&deployment)?;
    let gpus: u32 = specs.iter().map(|s| s.num_gpus()).sum();
    println!("GPUs used: {gpus} of {}", cluster.total_gpus());
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let (arch, dataset, slo, cluster, cost) = common_setup(args)?;
    let rate = args.get_positive("rate", 4.0)?;
    let requests = args.get_count("requests", 500)? as usize;
    let seed = args.get_int("seed", 0)?;
    let planner = planner(&cost, &cluster, arch.clone(), args)?;
    let deployment = build_deployment(&planner, args, dataset, slo, rate)?;
    println!("placement: {}", describe(&deployment));
    let specs = planner.materialize(&deployment)?;
    let trace = dataset.make_trace(rate, requests, seed);
    let outcome = serve_trace(
        &cost,
        &cluster,
        &arch,
        specs,
        &trace,
        FidelityConfig::ideal(),
        seed,
    )?;
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec![
        "SLO attainment".into(),
        format!("{:.1}%", outcome.attainment(slo.ttft, slo.tpot) * 100.0),
    ]);
    table.row(vec![
        "P50 / P90 / P99 TTFT".into(),
        format!(
            "{:.3} / {:.3} / {:.3} s",
            outcome.ttft_summary().percentile(0.5),
            outcome.ttft_summary().percentile(0.9),
            outcome.ttft_summary().percentile(0.99)
        ),
    ]);
    table.row(vec![
        "P50 / P90 / P99 TPOT".into(),
        format!(
            "{:.4} / {:.4} / {:.4} s",
            outcome.tpot_summary().percentile(0.5),
            outcome.tpot_summary().percentile(0.9),
            outcome.tpot_summary().percentile(0.99)
        ),
    ]);
    table.row(vec!["requests".into(), outcome.records.len().to_string()]);
    table.row(vec!["makespan".into(), format!("{}", outcome.makespan)]);
    let b = outcome.breakdown_totals();
    let total = b.total().max(1e-12);
    table.row(vec![
        "breakdown (pq/pe/tx/dq/de)".into(),
        format!(
            "{:.1}% / {:.1}% / {:.2}% / {:.1}% / {:.1}%",
            b.prefill_queue / total * 100.0,
            b.prefill_exec / total * 100.0,
            b.transfer / total * 100.0,
            b.decode_queue / total * 100.0,
            b.decode_exec / total * 100.0
        ),
    ]);
    print!("{}", table.render());
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let (arch, dataset, slo, cluster, cost) = common_setup(args)?;
    let rates: Vec<f64> = args
        .get_or("rates", "0.5,1,2,4")
        .split(',')
        .map(|s| positive("rates", s))
        .collect::<Result<_, _>>()?;
    let plan_rate = rates.iter().copied().fold(f64::NAN, f64::max);
    let planner = planner(&cost, &cluster, arch.clone(), args)?;
    let deployment = build_deployment(&planner, args, dataset, slo, plan_rate)?;
    println!("placement: {}", describe(&deployment));
    let specs = planner.materialize(&deployment)?;
    let points = rate_sweep(
        &cost, &cluster, &arch, &specs, &dataset, slo, &rates, 256, 0,
    )?;
    let mut table = Table::new(vec!["rate/GPU", "attainment", "TTFT-only", "TPOT-only"]);
    for p in points {
        table.row(vec![
            format!("{:.3}", p.x),
            format!("{:.2}", p.attainment),
            format!("{:.2}", p.ttft_attainment),
            format!("{:.2}", p.tpot_attainment),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn usage() -> &'static str {
    "distserve — goodput-optimized LLM serving (DistServe, OSDI '24) in Rust

USAGE:
  distserve models
  distserve plan  [--model M] [--dataset D] [--rate R] [--ttft S] [--tpot S]
                  [--cluster 4x8|ib:4x8] [--system distserve|vllm|vllm++]
                  [--engine conservative|modern]
  distserve serve [same flags] [--requests N] [--seed K]
  distserve sweep [same flags] [--rates 0.5,1,2]

MODELS:   opt-{1.3b,2.7b,6.7b,13b,30b,66b,175b}, llama2-{7b,13b,70b}
DATASETS: sharegpt, humaneval, longbench"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "models" => cmd_models(),
        "plan" | "serve" | "sweep" => match Args::parse(&argv[1..]) {
            Ok(args) => match command.as_str() {
                "plan" => cmd_plan(&args),
                "serve" => cmd_serve(&args),
                _ => cmd_sweep(&args),
            },
            Err(e) => Err(e),
        },
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
