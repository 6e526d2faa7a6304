//! Hardware design-space exploration for a *fixed* network: sweeps every
//! accelerator configuration (the two-stage baseline's stage 2) and
//! prints how PE array size, buffering and dataflow shape the
//! latency/energy landscape.
//!
//! Run with: `cargo run --release --example accelerator_explore`

use yoso::accel::Simulator;
use yoso::arch::{Dataflow, HwConfig, NetworkSkeleton, PE_MENU};
use yoso::core::{best_hw_for, reference_models, Constraints, OptimizationTarget};
use yoso::pool::parallel_map;

fn main() {
    let skeleton = NetworkSkeleton::paper_default();
    let model = &reference_models()[0]; // NasNet-A stand-in
    let plan = skeleton.compile(&model.genotype);
    println!(
        "network: {} ({} layers, {:.1} MMACs)",
        model.name,
        plan.layers.len(),
        plan.stats.total_macs as f64 / 1e6
    );

    let sim = Simulator::exact();
    let configs: Vec<HwConfig> = HwConfig::enumerate_all().collect();
    let reports = parallel_map(configs.len(), 16, |i| sim.simulate_plan(&plan, &configs[i]));

    // Dataflow summary: best-achievable energy/latency per dataflow.
    println!("\nper-dataflow best (over all array/buffer choices):");
    println!("{:<6} {:>14} {:>14}", "flow", "energy(mJ)", "latency(ms)");
    for df in Dataflow::ALL {
        let best_e = configs
            .iter()
            .zip(&reports)
            .filter(|(c, _)| c.dataflow == df)
            .map(|(_, r)| r.energy_mj)
            .fold(f64::INFINITY, f64::min);
        let best_l = configs
            .iter()
            .zip(&reports)
            .filter(|(c, _)| c.dataflow == df)
            .map(|(_, r)| r.latency_ms)
            .fold(f64::INFINITY, f64::min);
        println!("{df:<6} {best_e:>14.4} {best_l:>14.4}");
    }

    // PE-array scaling at fixed buffers/dataflow.
    println!("\nPE-array scaling (512KB gbuf, 512B rbuf, WS):");
    println!(
        "{:<8} {:>8} {:>14} {:>14} {:>8}",
        "array", "PEs", "energy(mJ)", "latency(ms)", "util%"
    );
    for pe in PE_MENU {
        let hw = HwConfig {
            pe,
            gbuf_kb: 512,
            rbuf_bytes: 512,
            dataflow: Dataflow::Ws,
        };
        let r = sim.simulate_plan(&plan, &hw);
        println!(
            "{:<8} {:>8} {:>14.4} {:>14.4} {:>8.1}",
            pe.to_string(),
            pe.count(),
            r.energy_mj,
            r.latency_ms,
            r.utilization * 100.0
        );
    }

    // Constrained optimum per objective.
    let constraints = Constraints {
        t_lat_ms: f64::INFINITY,
        t_eer_mj: f64::INFINITY,
    };
    let best_e = best_hw_for(
        &model.genotype,
        &skeleton,
        &sim,
        &constraints,
        OptimizationTarget::Energy,
    );
    let best_l = best_hw_for(
        &model.genotype,
        &skeleton,
        &sim,
        &constraints,
        OptimizationTarget::Latency,
    );
    println!(
        "\nenergy-optimal config: {}  ({:.4} mJ, {:.4} ms)",
        best_e.hw, best_e.report.energy_mj, best_e.report.latency_ms
    );
    println!(
        "latency-optimal config: {}  ({:.4} mJ, {:.4} ms)",
        best_l.hw, best_l.report.energy_mj, best_l.report.latency_ms
    );
}
