//! The two-stage baseline flow (paper §IV-D).
//!
//! Stage 1 takes an accuracy-first network — the paper reuses published
//! NAS results (NasNet-A, DARTS, AmoebaNet-A, ENAS, PNAS). Those exact
//! models are not reproducible offline, so we substitute *representative
//! genotypes in our own search space* whose structural signatures mimic
//! each family (op mix and DAG shape); see DESIGN.md. Stage 2 enumerates
//! the entire accelerator configuration space for the fixed network and
//! keeps the best configuration under the user constraints — exactly the
//! paper's "all the possible accelerator configuration are enumerated".

use crate::evaluation::Evaluation;
use crate::reward::{Constraints, RewardConfig};
use yoso_accel::{PerfReport, Simulator};
use yoso_arch::{CellGenotype, DesignPoint, Genotype, HwConfig, NetworkSkeleton, NodeGene, Op};

/// A named reference model standing in for a published two-stage network.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceModel {
    /// Display name (matches Table 2 rows).
    pub name: &'static str,
    /// Search cost reported by the original paper (GPU-days), echoed in
    /// Table 2.
    pub search_cost_gpu_days: f64,
    /// Representative genotype in our search space.
    pub genotype: Genotype,
}

fn gene(in1: usize, op1: Op, in2: usize, op2: Op) -> NodeGene {
    NodeGene { in1, op1, in2, op2 }
}

/// Builds the six representative reference models of Table 2.
pub fn reference_models() -> Vec<ReferenceModel> {
    // NasNet-A: separable-conv heavy with pooling branches, deep chains.
    let nasnet = Genotype {
        normal: CellGenotype {
            nodes: [
                gene(0, Op::DwConv5, 1, Op::DwConv3),
                gene(1, Op::DwConv5, 0, Op::AvgPool),
                gene(2, Op::AvgPool, 1, Op::DwConv3),
                gene(3, Op::DwConv3, 1, Op::MaxPool),
                gene(4, Op::DwConv5, 2, Op::DwConv3),
            ],
        },
        reduction: CellGenotype {
            nodes: [
                gene(0, Op::DwConv5, 1, Op::DwConv5),
                gene(2, Op::MaxPool, 0, Op::DwConv5),
                gene(2, Op::AvgPool, 1, Op::DwConv3),
                gene(3, Op::MaxPool, 2, Op::DwConv5),
                gene(4, Op::DwConv3, 3, Op::AvgPool),
            ],
        },
    };
    // DARTS v1: dw3-dominated, shallow fan-in from the two inputs.
    let darts_v1 = Genotype {
        normal: CellGenotype {
            nodes: [
                gene(0, Op::DwConv3, 1, Op::DwConv3),
                gene(0, Op::DwConv3, 1, Op::DwConv3),
                gene(1, Op::DwConv3, 2, Op::DwConv3),
                gene(0, Op::DwConv3, 2, Op::AvgPool),
                gene(1, Op::DwConv3, 3, Op::DwConv3),
            ],
        },
        reduction: CellGenotype {
            nodes: [
                gene(0, Op::MaxPool, 1, Op::DwConv3),
                gene(1, Op::MaxPool, 2, Op::DwConv3),
                gene(1, Op::MaxPool, 2, Op::DwConv3),
                gene(2, Op::DwConv3, 3, Op::DwConv3),
                gene(2, Op::MaxPool, 4, Op::DwConv3),
            ],
        },
    };
    // DARTS v2: a deeper variant mixing dw3 and dw5.
    let darts_v2 = Genotype {
        normal: CellGenotype {
            nodes: [
                gene(0, Op::DwConv3, 1, Op::DwConv3),
                gene(2, Op::DwConv3, 0, Op::DwConv5),
                gene(3, Op::DwConv3, 1, Op::DwConv3),
                gene(4, Op::DwConv5, 2, Op::AvgPool),
                gene(5, Op::DwConv3, 0, Op::DwConv3),
            ],
        },
        reduction: darts_v1.reduction,
    };
    // AmoebaNet-A: evolution found wide cells with 5x5 convs and avgpool.
    let amoeba = Genotype {
        normal: CellGenotype {
            nodes: [
                gene(0, Op::Conv5, 1, Op::AvgPool),
                gene(0, Op::DwConv5, 1, Op::Conv3),
                gene(0, Op::AvgPool, 1, Op::DwConv5),
                gene(1, Op::Conv5, 2, Op::AvgPool),
                gene(0, Op::DwConv3, 1, Op::Conv5),
            ],
        },
        reduction: CellGenotype {
            nodes: [
                gene(0, Op::AvgPool, 1, Op::Conv5),
                gene(1, Op::MaxPool, 2, Op::DwConv5),
                gene(0, Op::Conv5, 2, Op::MaxPool),
                gene(3, Op::Conv3, 1, Op::AvgPool),
                gene(4, Op::DwConv5, 0, Op::Conv3),
            ],
        },
    };
    // ENAS: RL-found, conv3/5 mixed with wide output.
    let enas = Genotype {
        normal: CellGenotype {
            nodes: [
                gene(1, Op::Conv3, 0, Op::Conv5),
                gene(1, Op::Conv5, 0, Op::DwConv3),
                gene(0, Op::Conv3, 1, Op::AvgPool),
                gene(1, Op::Conv5, 0, Op::Conv3),
                gene(0, Op::Conv5, 1, Op::Conv5),
            ],
        },
        reduction: CellGenotype {
            nodes: [
                gene(0, Op::Conv5, 1, Op::MaxPool),
                gene(1, Op::Conv5, 2, Op::Conv3),
                gene(1, Op::MaxPool, 0, Op::Conv5),
                gene(2, Op::Conv3, 3, Op::MaxPool),
                gene(1, Op::Conv5, 4, Op::Conv3),
            ],
        },
    };
    // PNAS: progressive search favored large separable kernels.
    let pnas = Genotype {
        normal: CellGenotype {
            nodes: [
                gene(0, Op::DwConv5, 1, Op::DwConv5),
                gene(1, Op::DwConv5, 2, Op::MaxPool),
                gene(2, Op::DwConv5, 3, Op::DwConv5),
                gene(3, Op::DwConv5, 4, Op::DwConv5),
                gene(4, Op::DwConv5, 5, Op::MaxPool),
            ],
        },
        reduction: CellGenotype {
            nodes: [
                gene(0, Op::DwConv5, 1, Op::DwConv5),
                gene(1, Op::MaxPool, 2, Op::DwConv5),
                gene(2, Op::DwConv5, 3, Op::MaxPool),
                gene(3, Op::DwConv5, 4, Op::DwConv5),
                gene(4, Op::MaxPool, 5, Op::DwConv5),
            ],
        },
    };
    vec![
        ReferenceModel {
            name: "NasNet-A",
            search_cost_gpu_days: 1800.0,
            genotype: nasnet,
        },
        ReferenceModel {
            name: "Darts_v1",
            search_cost_gpu_days: 0.38,
            genotype: darts_v1,
        },
        ReferenceModel {
            name: "Darts_v2",
            search_cost_gpu_days: 1.0,
            genotype: darts_v2,
        },
        ReferenceModel {
            name: "AmoebaNet-A",
            search_cost_gpu_days: 3150.0,
            genotype: amoeba,
        },
        ReferenceModel {
            name: "EnasNet",
            search_cost_gpu_days: 1.0,
            genotype: enas,
        },
        ReferenceModel {
            name: "PnasNet",
            search_cost_gpu_days: 150.0,
            genotype: pnas,
        },
    ]
}

/// Which hardware metric stage 2 optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizationTarget {
    /// Minimize energy (the `Yoso_eer` comparison).
    Energy,
    /// Minimize latency (the `Yoso_lat` comparison).
    Latency,
}

/// Result of the exhaustive stage-2 enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct BestHw {
    /// The winning configuration.
    pub hw: HwConfig,
    /// Its simulation report.
    pub report: PerfReport,
    /// Whether it satisfied the constraints (if none did, the
    /// least-violating configuration is returned and this is `false`).
    pub feasible: bool,
}

/// Enumerates every hardware configuration for a fixed genotype and
/// returns the best under `target`, preferring constraint-satisfying
/// configurations.
///
/// The ~10^3 simulations fan out over the worker pool; the reduction
/// walks results in enumeration order, so the winner (including
/// tie-breaking on equal metrics) is identical to a serial sweep.
pub fn best_hw_for(
    genotype: &Genotype,
    skeleton: &NetworkSkeleton,
    sim: &Simulator,
    constraints: &Constraints,
    target: OptimizationTarget,
) -> BestHw {
    let plan = skeleton.compile(genotype);
    let configs: Vec<HwConfig> = HwConfig::enumerate_all().collect();
    let candidates = yoso_pool::parallel_map(configs.len(), 0, |i| {
        let hw = configs[i];
        let report = sim.simulate_plan(&plan, &hw);
        let feasible = constraints.satisfied(report.latency_ms, report.energy_mj);
        BestHw {
            hw,
            report,
            feasible,
        }
    });
    let mut best: Option<BestHw> = None;
    for cand in candidates {
        let metric = match target {
            OptimizationTarget::Energy => cand.report.energy_mj,
            OptimizationTarget::Latency => cand.report.latency_ms,
        };
        let better = match &best {
            None => true,
            Some(b) => {
                let b_metric = match target {
                    OptimizationTarget::Energy => b.report.energy_mj,
                    OptimizationTarget::Latency => b.report.latency_ms,
                };
                (cand.feasible && !b.feasible) || (cand.feasible == b.feasible && metric < b_metric)
            }
        };
        if better {
            best = Some(cand);
        }
    }
    best.expect("hardware space is non-empty")
}

/// A completed two-stage run for one reference model.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoStageResult {
    /// Model name.
    pub name: &'static str,
    /// Original search cost (GPU-days, from the source papers).
    pub search_cost_gpu_days: f64,
    /// The resulting design point.
    pub point: DesignPoint,
    /// Accuracy / latency / energy of the final pair.
    pub eval: Evaluation,
    /// Reward under the experiment's objective.
    pub reward: f64,
}

/// Runs the two-stage flow for each reference model: accuracy from
/// `accuracy_of` (stage 1 output is fixed), hardware by exhaustive
/// enumeration (stage 2).
pub fn run_two_stage(
    models: &[ReferenceModel],
    skeleton: &NetworkSkeleton,
    sim: &Simulator,
    reward_cfg: &RewardConfig,
    target: OptimizationTarget,
    mut accuracy_of: impl FnMut(&Genotype) -> f64,
) -> Vec<TwoStageResult> {
    models
        .iter()
        .map(|m| {
            let best = best_hw_for(&m.genotype, skeleton, sim, &reward_cfg.constraints, target);
            let eval = Evaluation {
                accuracy: accuracy_of(&m.genotype),
                latency_ms: best.report.latency_ms,
                energy_mj: best.report.energy_mj,
            };
            TwoStageResult {
                name: m.name,
                search_cost_gpu_days: m.search_cost_gpu_days,
                point: DesignPoint {
                    genotype: m.genotype,
                    hw: best.hw,
                },
                eval,
                reward: reward_cfg.reward(eval.accuracy, eval.latency_ms, eval.energy_mj),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_models_are_valid_and_distinct() {
        let models = reference_models();
        assert_eq!(models.len(), 6);
        for m in &models {
            assert!(m.genotype.is_valid(), "{} invalid", m.name);
        }
        for i in 0..models.len() {
            for j in i + 1..models.len() {
                assert_ne!(models[i].genotype, models[j].genotype);
            }
        }
    }

    #[test]
    fn reference_models_differ_structurally() {
        // PNAS should be dw5-heavy; ENAS conv-heavy.
        let models = reference_models();
        let pnas = models.iter().find(|m| m.name == "PnasNet").unwrap();
        let h = pnas.genotype.normal.op_histogram();
        assert!(h[Op::DwConv5.index()] >= 6);
        let enas = models.iter().find(|m| m.name == "EnasNet").unwrap();
        let he = enas.genotype.normal.op_histogram();
        assert!(he[Op::Conv3.index()] + he[Op::Conv5.index()] >= 6);
    }

    #[test]
    fn best_hw_minimizes_target() {
        let sk = NetworkSkeleton::tiny();
        let models = reference_models();
        let sim = Simulator::fast();
        let cons = Constraints {
            t_lat_ms: f64::INFINITY,
            t_eer_mj: f64::INFINITY,
        };
        let best_e = best_hw_for(
            &models[0].genotype,
            &sk,
            &sim,
            &cons,
            OptimizationTarget::Energy,
        );
        let best_l = best_hw_for(
            &models[0].genotype,
            &sk,
            &sim,
            &cons,
            OptimizationTarget::Latency,
        );
        assert!(best_e.feasible && best_l.feasible);
        // Energy-best is no worse in energy than latency-best, and vice versa.
        assert!(best_e.report.energy_mj <= best_l.report.energy_mj);
        assert!(best_l.report.latency_ms <= best_e.report.latency_ms);
        // Sanity: the enumeration actually explored the space.
        let plan = sk.compile(&models[0].genotype);
        let arbitrary = sim.simulate_plan(&plan, &HwConfig::from_indices(0, 0, 0, 3));
        assert!(best_e.report.energy_mj <= arbitrary.energy_mj);
    }

    #[test]
    fn infeasible_constraints_flagged() {
        let sk = NetworkSkeleton::tiny();
        let models = reference_models();
        let sim = Simulator::fast();
        let cons = Constraints {
            t_lat_ms: 1e-12,
            t_eer_mj: 1e-12,
        };
        let best = best_hw_for(
            &models[1].genotype,
            &sk,
            &sim,
            &cons,
            OptimizationTarget::Energy,
        );
        assert!(!best.feasible);
    }

    #[test]
    fn two_stage_produces_one_result_per_model() {
        let sk = NetworkSkeleton::tiny();
        let sim = Simulator::fast();
        let cons = crate::evaluation::calibrate_constraints(&sk, 40, 0, 60.0);
        let rc = RewardConfig::balanced(cons);
        let models = reference_models();
        let results = run_two_stage(&models, &sk, &sim, &rc, OptimizationTarget::Energy, |_| 0.8);
        assert_eq!(results.len(), 6);
        for r in &results {
            assert!(r.eval.energy_mj > 0.0);
            assert!(r.reward.is_finite());
        }
    }
}
