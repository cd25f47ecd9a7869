//! The timing shim must not change what it measures: a traced run with
//! the scheduler wrapped in [`TimedScheduler`] equals an unwrapped traced
//! run on the per-job JCT witness and on the allocator's and the round
//! engine's counters, through both simulator entry points
//! (`schedule_delta` with delta rounds on, `schedule_into` with them
//! off).

use optimus_cluster::Cluster;
use optimus_core::prelude::OptimusScheduler;
use optimus_core::Scheduler;
use optimus_perfbench::{ShimLog, TimedScheduler};
use optimus_simulator::{SimConfig, Simulation};
use optimus_telemetry::Telemetry;
use optimus_workload::{ArrivalProcess, WorkloadGenerator};

struct Outcome {
    jct: Vec<(u64, u64)>,
    counters: Vec<(String, u64)>,
    rounds: u64,
    shim: Option<ShimLog>,
}

fn run(wrapped: bool, delta_rounds: bool) -> Outcome {
    let specs = WorkloadGenerator::new(
        ArrivalProcess::UniformRandom {
            count: 12,
            horizon_s: 6_000.0,
        },
        5,
    )
    .with_target_job_seconds(Some(1_800.0))
    .generate();
    let tel = Telemetry::enabled();
    let optimus: Box<dyn Scheduler> = Box::new(OptimusScheduler::build_with_telemetry(tel.clone()));
    let (scheduler, log): (Box<dyn Scheduler>, _) = if wrapped {
        let (shim, log) = TimedScheduler::wrap(optimus);
        (Box::new(shim), Some(log))
    } else {
        (optimus, None)
    };
    let config = SimConfig {
        seed: 5,
        loss_sample_every_s: 60.0,
        telemetry: tel.clone(),
        delta_rounds,
        ..SimConfig::default()
    };
    let report = Simulation::new(Cluster::paper_testbed(), specs, scheduler, config).run();
    assert_eq!(report.unfinished_jobs, 0, "workload must finish");
    let mut jct: Vec<(u64, u64)> = report
        .jct
        .iter()
        .map(|&(id, t)| (id.0, t.to_bits()))
        .collect();
    jct.sort_unstable();
    let summary = tel.summary();
    Outcome {
        jct,
        counters: summary
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("alloc.") || name.starts_with("round."))
            .collect(),
        rounds: summary
            .histograms
            .iter()
            .find(|h| h.name == "sim.round_wall_us")
            .map_or(0, |h| h.count),
        shim: log.map(|l| l.borrow().clone()),
    }
}

#[test]
fn wrapped_run_equals_unwrapped_run() {
    for delta_rounds in [true, false] {
        let bare = run(false, delta_rounds);
        let wrapped = run(true, delta_rounds);
        assert_eq!(bare.jct, wrapped.jct, "delta_rounds={delta_rounds}");
        assert!(!bare.counters.is_empty());
        assert_eq!(
            bare.counters, wrapped.counters,
            "delta_rounds={delta_rounds}"
        );

        let log = wrapped.shim.expect("wrapped run has a shim log");
        assert!(!log.call_s.is_empty());
        assert!(log.call_s.len() as u64 <= wrapped.rounds);
        if delta_rounds {
            // Only the wrapped scheduler's own delta engine reuses
            // placements; the trait's default `schedule_delta` never does.
            assert!(log.delta.place_reused_rounds > 0, "{:?}", log.delta);
        } else {
            assert_eq!(
                log.delta.place_reused_rounds + log.delta.alloc_full_rounds,
                0
            );
        }
    }
}
