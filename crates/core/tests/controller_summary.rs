//! The `controller_summary` event counts rollouts, not sampling passes.
//! (Alone in its test binary: the trace registry is process-global, so a
//! concurrent traced run would add to the counted deltas.)

use yoso_arch::NetworkSkeleton;
use yoso_core::{
    calibrate_constraints, RewardConfig, SearchConfig, SearchSession, Strategy, SurrogateEvaluator,
};
use yoso_trace::{Event, Trace};

#[test]
fn traced_rl_run_reports_one_sample_per_iteration() {
    let sk = NetworkSkeleton::tiny();
    let ev = SurrogateEvaluator::new(sk.clone());
    let rc = RewardConfig::balanced(calibrate_constraints(&sk, 60, 0, 50.0));
    let trace = Trace::memory();
    // 23 = 4 x 5 + 3: the last batch is partial.
    SearchSession::builder()
        .evaluator(&ev)
        .reward(rc)
        .config(
            SearchConfig::builder()
                .iterations(23)
                .rollouts_per_update(5)
                .build(),
        )
        .strategy(Strategy::Rl)
        .trace(trace.clone())
        .run()
        .unwrap();
    let summary = trace
        .lines()
        .iter()
        .filter_map(|l| Event::parse(l).ok())
        .find(|e| e.kind == "controller_summary")
        .expect("controller_summary event");
    assert_eq!(summary.get_u64("samples"), Some(23));
    assert_eq!(summary.get_u64("updates"), Some(5));
}
