//! Shared infrastructure for the paper-reproduction harnesses.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the DistServe paper (see `DESIGN.md` for the index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results). This library
//! holds what they share: the calibrated testbed cost model, goodput
//! measurement against full-system simulations, and uniform headers so
//! `bench_output.txt` is self-describing.

pub mod overhead;
pub mod sentinel;

use distserve_cluster::Cluster;
use distserve_core::serve_trace;
use distserve_engine::{FidelityConfig, InstanceSpec};
use distserve_models::{ModelArch, RooflineModel};
use distserve_placement::goodput::{max_goodput, probe_count_with};
use distserve_placement::{SloSpec, TraceSource};

/// The cost model used for every paper-figure reproduction: A100-80G
/// under the calibrated 2023-era engine profile (see
/// [`RooflineModel::a100_conservative`]).
#[must_use]
pub fn paper_cost() -> RooflineModel {
    RooflineModel::a100_conservative()
}

/// Prints a uniform experiment header.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

/// Measures a fixed deployment's per-GPU goodput with full simulations:
/// the largest per-GPU rate whose joint-SLO attainment meets the target.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn per_gpu_goodput(
    cost: &RooflineModel,
    cluster: &Cluster,
    arch: &ModelArch,
    specs: &[InstanceSpec],
    source: &dyn TraceSource,
    slo: SloSpec,
    probe_secs: f64,
    seed: u64,
) -> f64 {
    let gpus: u32 = specs.iter().map(InstanceSpec::num_gpus).sum();
    let total = max_goodput(
        |rate| {
            let n = probe_count_with(rate, 200, probe_secs);
            let trace = source.make_trace(rate, n, seed);
            serve_trace(
                cost,
                cluster,
                arch,
                specs.to_vec(),
                &trace,
                FidelityConfig::ideal(),
                seed,
            )
            .map(|o| o.attainment(slo.ttft, slo.tpot))
            .unwrap_or(0.0)
        },
        slo.target,
        0.5,
        7,
    );
    total / f64::from(gpus)
}

/// Finds the most stringent SLO scale a deployment withstands at a fixed
/// per-GPU rate (Figures 8/9 row two): the smallest scale with attainment
/// at target, by bisection over a decreasing-scale probe.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn min_slo_scale(
    cost: &RooflineModel,
    cluster: &Cluster,
    arch: &ModelArch,
    specs: &[InstanceSpec],
    source: &dyn TraceSource,
    base_slo: SloSpec,
    per_gpu_rate: f64,
    seed: u64,
) -> f64 {
    let gpus: u32 = specs.iter().map(InstanceSpec::num_gpus).sum();
    let total_rate = per_gpu_rate * f64::from(gpus);
    let n = probe_count_with(total_rate, 200, 45.0);
    let trace = source.make_trace(total_rate, n, seed);
    let Ok(outcome) = serve_trace(
        cost,
        cluster,
        arch,
        specs.to_vec(),
        &trace,
        FidelityConfig::ideal(),
        seed,
    ) else {
        return f64::INFINITY;
    };
    // Attainment is monotone in scale; probe on inverse scale so the
    // "max passing value" search applies.
    let inv = max_goodput(
        |inv_scale| {
            let slo = base_slo.scaled(1.0 / inv_scale);
            outcome.attainment(slo.ttft, slo.tpot)
        },
        base_slo.target,
        0.25,
        24,
    );
    if inv <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / inv
    }
}

/// Everything the Figure 8/9 harnesses report for one application.
pub struct Comparison {
    /// Application compared.
    pub app: distserve_core::Application,
    /// DistServe's chosen placement, rendered.
    pub placement: String,
    /// DistServe per-GPU goodput at 90% attainment.
    pub goodput_distserve: f64,
    /// vLLM per-GPU goodput at 90% attainment.
    pub goodput_vllm: f64,
    /// Most stringent SLO scale DistServe withstands at the common rate.
    pub scale_distserve: f64,
    /// Most stringent SLO scale vLLM withstands at the common rate.
    pub scale_vllm: f64,
}

impl Comparison {
    /// Goodput improvement factor.
    #[must_use]
    pub fn rate_factor(&self) -> f64 {
        self.goodput_distserve / self.goodput_vllm.max(1e-9)
    }

    /// SLO-stringency improvement factor.
    #[must_use]
    pub fn slo_factor(&self) -> f64 {
        self.scale_vllm / self.scale_distserve.max(1e-9)
    }
}

/// Runs the full Figure 8/9 comparison for one application: plans
/// DistServe, builds the vLLM baseline, sweeps rates and SLO scales, and
/// prints the paper-style series. `probe_secs` trades precision for time.
#[must_use]
pub fn compare_systems(
    app: distserve_core::Application,
    plan_rate: f64,
    probe_secs: f64,
    seed: u64,
) -> Comparison {
    use distserve_core::{rate_sweep, slo_scale_sweep, Planner, Table};
    use distserve_placement::alg1::SearchParams;
    use distserve_placement::deploy::Deployment;

    let cost = paper_cost();
    let cluster = Cluster::paper_testbed();
    let arch = app.model().arch();
    let slo = app.slo();
    let dataset = app.dataset();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = SearchParams {
        probe_requests: 192,
        probe_secs,
        search_iters: 6,
        ..planner.params
    };
    let deployment = planner
        .plan_distserve(&dataset, slo, plan_rate)
        .expect("application is plannable on the testbed");
    let placement = match &deployment {
        Deployment::Low(p) => format!(
            "prefill {} + decode {} ({} unit(s))",
            p.prefill_par, p.decode_par, p.num_units
        ),
        Deployment::High(p) => format!(
            "prefill {} x{} + decode {} x{}",
            p.prefill.par, p.num_prefill, p.decode.par, p.num_decode
        ),
        Deployment::Coloc(p) => format!("colocated {} x{}", p.par, p.num_replicas),
    };
    let ds_specs = planner.materialize(&deployment).expect("fits the testbed");
    let vllm = planner
        .plan_vllm(app.vllm_parallelism(), 1)
        .expect("baseline parallelism is valid");
    let vllm_specs = planner.materialize(&vllm).expect("fits the testbed");

    println!("\n--- {} ---", app.name());
    println!(
        "SLO: TTFT {:.3}s TPOT {:.3}s @ {:.0}%  |  DistServe placement: {placement}  |  vLLM: {} x1",
        slo.ttft,
        slo.tpot,
        slo.target * 100.0,
        app.vllm_parallelism(),
    );

    let g_ds = per_gpu_goodput(
        &cost, &cluster, &arch, &ds_specs, &dataset, slo, probe_secs, seed,
    );
    let g_vl = per_gpu_goodput(
        &cost,
        &cluster,
        &arch,
        &vllm_specs,
        &dataset,
        slo,
        probe_secs,
        seed,
    );

    // Row 1: attainment vs per-GPU rate.
    let top = (g_ds.max(g_vl) * 1.4).max(0.05);
    let rates: Vec<f64> = (1..=6).map(|i| top * f64::from(i) / 6.0).collect();
    let ds_pts = rate_sweep(
        &cost, &cluster, &arch, &ds_specs, &dataset, slo, &rates, 192, seed,
    )
    .expect("sweep runs");
    let vl_pts = rate_sweep(
        &cost,
        &cluster,
        &arch,
        &vllm_specs,
        &dataset,
        slo,
        &rates,
        192,
        seed,
    )
    .expect("sweep runs");
    let mut table = Table::new(vec![
        "rate/GPU",
        "DistServe",
        "Dist-TTFT",
        "Dist-TPOT",
        "vLLM",
        "vLLM-TTFT",
        "vLLM-TPOT",
    ]);
    for (d, v) in ds_pts.iter().zip(&vl_pts) {
        table.row(vec![
            format!("{:.3}", d.x),
            format!("{:.2}", d.attainment),
            format!("{:.2}", d.ttft_attainment),
            format!("{:.2}", d.tpot_attainment),
            format!("{:.2}", v.attainment),
            format!("{:.2}", v.ttft_attainment),
            format!("{:.2}", v.tpot_attainment),
        ]);
    }
    print!("{}", table.render());

    // Row 2: attainment vs SLO scale at a common rate (vLLM's knee).
    let common_rate = g_vl.max(0.01);
    let scales = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
    let ds_sc = slo_scale_sweep(
        &cost,
        &cluster,
        &arch,
        &ds_specs,
        &dataset,
        slo,
        common_rate,
        &scales,
        192,
        seed,
    )
    .expect("sweep runs");
    let vl_sc = slo_scale_sweep(
        &cost,
        &cluster,
        &arch,
        &vllm_specs,
        &dataset,
        slo,
        common_rate,
        &scales,
        192,
        seed,
    )
    .expect("sweep runs");
    let mut table = Table::new(vec!["SLO scale", "DistServe", "vLLM"]);
    for (d, v) in ds_sc.iter().zip(&vl_sc) {
        table.row(vec![
            format!("{:.2}", d.x),
            format!("{:.2}", d.attainment),
            format!("{:.2}", v.attainment),
        ]);
    }
    println!("\nSLO-scale sweep at {common_rate:.3} rps/GPU:");
    print!("{}", table.render());

    let scale_ds = min_slo_scale(
        &cost,
        &cluster,
        &arch,
        &ds_specs,
        &dataset,
        slo,
        common_rate,
        seed,
    );
    let scale_vl = min_slo_scale(
        &cost,
        &cluster,
        &arch,
        &vllm_specs,
        &dataset,
        slo,
        common_rate,
        seed,
    );

    let cmp = Comparison {
        app,
        placement,
        goodput_distserve: g_ds,
        goodput_vllm: g_vl,
        scale_distserve: scale_ds,
        scale_vllm: scale_vl,
    };
    println!(
        "\ngoodput: DistServe {g_ds:.3} vs vLLM {g_vl:.3} rps/GPU  → {:.2}x",
        cmp.rate_factor()
    );
    println!(
        "min SLO scale @ {common_rate:.3} rps/GPU: DistServe {scale_ds:.2} vs vLLM {scale_vl:.2} → {:.2}x more stringent",
        cmp.slo_factor()
    );
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_core::Application;
    use distserve_engine::InstanceRole;
    use distserve_models::ParallelismConfig;

    #[test]
    fn goodput_and_scale_helpers_run() {
        let app = Application::ChatbotOpt13B;
        let cost = paper_cost();
        let cluster = Cluster::paper_testbed();
        let arch = app.model().arch();
        let spec = InstanceSpec::new(
            InstanceRole::Colocated,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 0)]],
        )
        .unwrap();
        let g = per_gpu_goodput(
            &cost,
            &cluster,
            &arch,
            std::slice::from_ref(&spec),
            &app.dataset(),
            app.slo(),
            20.0,
            3,
        );
        assert!(g > 0.1 && g < 20.0, "goodput {g}");
        let s = min_slo_scale(
            &cost,
            &cluster,
            &arch,
            &[spec],
            &app.dataset(),
            app.slo(),
            g * 0.6,
            3,
        );
        assert!(s > 0.0 && s < 4.0, "scale {s}");
    }
}
