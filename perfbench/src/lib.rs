//! Whole-simulation benchmark for the Optimus reproduction.
//!
//! Runs [`Simulation`] end to end on a named [`Workload`] and measures
//! it from outside the program:
//!
//! * `simulator` — host time of the public [`Simulation::new`] and
//!   [`Simulation::run`] calls;
//! * `core` — a timing shim ([`TimedScheduler`]) around the public
//!   [`Scheduler`] trait;
//! * `fitting`, `ps`, `telemetry` — the counters, spans and histograms
//!   an enabled [`Telemetry`] handle already collects.
//!
//! Nothing here adds tracing inside the program.

use optimus_cluster::{Cluster, ResourceVec};
use optimus_core::prelude::OptimusScheduler;
use optimus_core::{DeltaStats, JobView, RoundDelta, RoundScratch, Schedule, Scheduler};
use optimus_simulator::{SimConfig, SimReport, Simulation};
use optimus_telemetry::Telemetry;
use optimus_workload::arrivals::calibrated_scale;
use optimus_workload::{ArrivalProcess, JobId, JobSpec, ModelKind, TrainingMode};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The benchmark's workloads, each a [`balanced_mix`] arriving uniformly
/// at random. Every [`SimConfig`] field not set by [`Workload::config`]
/// keeps its default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 13-server testbed, oversubscribed for days: 200
    /// two-hour jobs arriving over 12 000 s, loss reported every 5 s.
    TestbedContended,
    /// The testbed nearly idle: 1 000 one-hour jobs over 120 days,
    /// loss reported every 60 s. Run by hand only: on a shared host its
    /// run time spreads too far for `BENCHMARK.json`'s bound.
    TestbedSparse,
    /// 4 000 homogeneous 32-core servers with headroom: 2 000 one-hour
    /// jobs over one day, loss reported every 60 s.
    Cluster4k,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TestbedContended,
        Workload::TestbedSparse,
        Workload::Cluster4k,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TestbedContended => "testbed-contended",
            Workload::TestbedSparse => "testbed-sparse",
            Workload::Cluster4k => "cluster-4k",
        }
    }

    /// The workload with command-line name `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(jobs, arrival horizon s, target job length s)`.
    fn shape(self) -> (usize, f64, f64) {
        match self {
            Workload::TestbedContended => (200, 12_000.0, 7_200.0),
            Workload::TestbedSparse => (1_000, 120.0 * 86_400.0, 3_600.0),
            Workload::Cluster4k => (2_000, 86_400.0, 3_600.0),
        }
    }

    /// Number of jobs the workload submits.
    pub fn jobs(self) -> usize {
        self.shape().0
    }

    /// The generated job specs for `seed`.
    pub fn generate(self, seed: u64) -> Vec<JobSpec> {
        let (count, horizon_s, job_s) = self.shape();
        balanced_mix(
            ArrivalProcess::UniformRandom { count, horizon_s },
            job_s,
            seed,
        )
    }

    /// The cluster the workload runs on.
    pub fn cluster(self) -> Cluster {
        match self {
            Workload::TestbedContended | Workload::TestbedSparse => Cluster::paper_testbed(),
            Workload::Cluster4k => {
                Cluster::homogeneous(4_000, ResourceVec::new(32.0, 0.0, 96.0, 1.0))
            }
        }
    }

    /// The simulation settings for `seed` with telemetry handle `tel`.
    pub fn config(self, seed: u64, tel: Telemetry) -> SimConfig {
        let defaults = SimConfig::default();
        let (loss_sample_every_s, max_time_s) = match self {
            // The makespan is near 300 000 s; the cap sits far past it.
            Workload::TestbedContended => (5.0, 2_000_000.0),
            Workload::TestbedSparse => (60.0, 180.0 * 86_400.0),
            Workload::Cluster4k => (60.0, defaults.max_time_s),
        };
        SimConfig {
            seed,
            loss_sample_every_s,
            max_time_s,
            telemetry: tel,
            ..defaults
        }
    }
}

/// The Table-1 mix of [`optimus_workload::WorkloadGenerator`] — every
/// model, both training modes, thresholds uniform in [1 %, 5 %], nominal
/// lengths log-uniform within ×/÷ 9 of `job_s` — drawn as a stratified
/// sample instead of independently: each (model, mode) cell gets an
/// equal share of the jobs, and within a cell of `n` jobs, thresholds and
/// lengths each take one value from every one of `n` equal strata. The
/// seed draws the arrival times, which job falls in which cell and
/// strata, and the point within each stratum.
///
/// Stratifying fixes the load the seed submits. With independent draws
/// the total work varies by about 10 % between seeds, which an
/// oversubscribed queue amplifies: on `testbed-contended`, mean JCT
/// ranged over 2x across ten seeds, against about ±6 % stratified.
pub fn balanced_mix(arrivals: ArrivalProcess, job_s: f64, seed: u64) -> Vec<JobSpec> {
    const MODES: [TrainingMode; 2] = [TrainingMode::Synchronous, TrainingMode::Asynchronous];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let times = arrivals.generate(&mut rng);
    let count = times.len();
    let cells = ModelKind::ALL.len() * MODES.len();
    // Jobs in cell `c` when slot `s` falls in cell `s % cells`.
    let size = |c: usize| (count + cells - 1 - c) / cells;
    let shuffled = |n: usize, rng: &mut ChaCha8Rng| {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        order
    };
    let slot = shuffled(count, &mut rng);
    let threshold: Vec<Vec<usize>> = (0..cells).map(|c| shuffled(size(c), &mut rng)).collect();
    let length: Vec<Vec<usize>> = (0..cells).map(|c| shuffled(size(c), &mut rng)).collect();
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let (c, rank) = (slot[i] % cells, slot[i] / cells);
            let model = ModelKind::ALL[c / MODES.len()];
            let mode = MODES[c % MODES.len()];
            let mut at = |stratum: usize| (stratum as f64 + rng.gen::<f64>()) / size(c) as f64;
            let threshold = 0.01 + 0.04 * at(threshold[c][rank]);
            let spread = ((2.0 * at(length[c][rank]) - 1.0) * 3.0f64.ln()).exp();
            let scale = calibrated_scale(model, mode, threshold, job_s * spread * spread);
            JobSpec::new(JobId(i as u64), model, mode, threshold)
                .at(t)
                .scaled(scale)
        })
        .collect()
}

/// Totals of the [`DeltaStats`] the wrapped scheduler returned, plus
/// the grants it made.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeltaTotals {
    /// Σ dirty job views.
    pub dirty_jobs: u64,
    /// Σ grants replayed from stored rows.
    pub replayed_grants: u64,
    /// Σ grants beyond each job's initial (1 PS, 1 worker), over the
    /// calls that did not skip the round (the allocator's own count).
    pub grants: u64,
    /// Calls whose allocator ran the full greedy pass.
    pub alloc_full_rounds: u64,
    /// Calls that skipped the whole round.
    pub skipped_rounds: u64,
    /// Calls whose placement reused the previous store.
    pub place_reused_rounds: u64,
}

/// What the shim saw: one host time per scheduler call and the summed
/// delta statistics.
#[derive(Debug, Clone, Default)]
pub struct ShimLog {
    /// Host seconds of each call, in call order.
    pub call_s: Vec<f64>,
    /// Summed [`DeltaStats`] of the `schedule_delta` calls.
    pub delta: DeltaTotals,
}

/// A [`Scheduler`] that forwards every entry point to the wrapped one
/// and records the host time of each call and the returned
/// [`DeltaStats`]. All three entry points are forwarded: the trait's
/// default `schedule_delta` would run the full path instead of the
/// wrapped scheduler's delta engine.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    log: Rc<RefCell<ShimLog>>,
}

impl TimedScheduler {
    /// Wraps `inner`; the returned log fills as the simulation runs.
    pub fn wrap(inner: Box<dyn Scheduler>) -> (TimedScheduler, Rc<RefCell<ShimLog>>) {
        let log = Rc::new(RefCell::new(ShimLog::default()));
        let shim = TimedScheduler {
            inner,
            log: Rc::clone(&log),
        };
        (shim, log)
    }

    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let elapsed = start.elapsed().as_secs_f64();
        self.log.borrow_mut().call_s.push(elapsed);
        out
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&self, jobs: &[JobView], cluster: &Cluster) -> Schedule {
        self.timed(|| self.inner.schedule(jobs, cluster))
    }

    fn schedule_into(
        &self,
        jobs: &[JobView],
        cluster: &Cluster,
        scratch: &mut RoundScratch,
        out: &mut Schedule,
    ) {
        self.timed(|| self.inner.schedule_into(jobs, cluster, scratch, out))
    }

    fn schedule_delta(
        &self,
        jobs: &[JobView],
        cluster: &Cluster,
        delta: &RoundDelta,
        scratch: &mut RoundScratch,
        out: &mut Schedule,
    ) -> DeltaStats {
        let stats = self.timed(|| {
            self.inner
                .schedule_delta(jobs, cluster, delta, scratch, out)
        });
        let grants = if stats.skipped_full {
            0
        } else {
            out.allocations()
                .iter()
                .map(|a| u64::from(a.ps + a.workers).saturating_sub(2))
                .sum()
        };
        let mut log = self.log.borrow_mut();
        let t = &mut log.delta;
        t.dirty_jobs += stats.dirty_jobs;
        t.replayed_grants += stats.replayed_grants;
        t.grants += grants;
        t.alloc_full_rounds += u64::from(stats.alloc_full);
        t.skipped_rounds += u64::from(stats.skipped_full);
        t.place_reused_rounds += u64::from(stats.place_reused);
        stats
    }
}

/// How one run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instrument {
    /// Run with [`Telemetry::enabled`] instead of a disabled handle.
    pub traced: bool,
    /// Wrap the scheduler in a [`TimedScheduler`].
    pub shim: bool,
}

/// A simulation ready to run, with the host time its set-up took.
pub struct Prepared {
    sim: Simulation,
    tel: Telemetry,
    shim: Option<Rc<RefCell<ShimLog>>>,
    /// Host seconds to generate the workload.
    pub generate_s: f64,
    /// Host seconds of [`Simulation::new`].
    pub new_s: f64,
    /// Host seconds of the whole set-up: workload, cluster, scheduler
    /// and simulation.
    pub setup_s: f64,
}

/// Builds the simulation of `workload` for `seed`.
pub fn prepare(workload: Workload, seed: u64, how: Instrument) -> Prepared {
    let start = Instant::now();
    let specs = workload.generate(seed);
    let generate_s = start.elapsed().as_secs_f64();
    let tel = if how.traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let cluster = workload.cluster();
    let optimus: Box<dyn Scheduler> = Box::new(OptimusScheduler::build_with_telemetry(tel.clone()));
    let (scheduler, shim): (Box<dyn Scheduler>, _) = if how.shim {
        let (wrapped, log) = TimedScheduler::wrap(optimus);
        (Box::new(wrapped), Some(log))
    } else {
        (optimus, None)
    };
    let config = workload.config(seed, tel.clone());
    let new_start = Instant::now();
    let sim = Simulation::new(cluster, specs, scheduler, config);
    let new_s = new_start.elapsed().as_secs_f64();
    Prepared {
        sim,
        tel,
        shim,
        generate_s,
        new_s,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// Per-job completion times as `(job id, JCT bit pattern)`, sorted by
/// id: the witness two runs must agree on bit for bit.
pub type JctBits = Vec<(u64, u64)>;

/// Σ duration of every closed span named `name`, seconds.
fn span_s(spans: &[optimus_telemetry::SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us)
        .sum::<u64>() as f64
        * 1e-6
}

/// What a traced run's telemetry handle collected, reduced to the
/// numbers the per-layer metrics need.
#[derive(Debug, Clone, Default)]
pub struct TraceTotals {
    /// Scheduling rounds (`sim.round_wall_us` count).
    pub rounds: u64,
    /// Σ round wall time, seconds (`sim.round_wall_us` sum; the
    /// histogram's quantiles are bucket-clamped and never read).
    pub round_s: f64,
    /// Σ `sched.refit` spans, seconds.
    pub refit_s: f64,
    /// Σ `sched.decision` spans, seconds.
    pub decision_s: f64,
    /// Σ `alloc.allocate` spans, seconds.
    pub alloc_s: f64,
    /// Σ `place.place` spans, seconds.
    pub place_s: f64,
    /// Σ `nnls.iterations` observations.
    pub nnls_iterations: f64,
    /// Every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Closed spans recorded.
    pub spans: u64,
    /// Decision records recorded.
    pub records: u64,
}

impl TraceTotals {
    fn collect(tel: &Telemetry) -> TraceTotals {
        let summary = tel.summary();
        let hist = |name: &str| summary.histograms.iter().find(|h| h.name == name);
        let spans = tel.spans();
        TraceTotals {
            rounds: hist("sim.round_wall_us").map_or(0, |h| h.count),
            round_s: hist("sim.round_wall_us").map_or(0.0, |h| h.sum * 1e-6),
            refit_s: span_s(&spans, "sched.refit"),
            decision_s: span_s(&spans, "sched.decision"),
            alloc_s: span_s(&spans, "alloc.allocate"),
            place_s: span_s(&spans, "place.place"),
            nnls_iterations: hist("nnls.iterations").map_or(0.0, |h| h.sum),
            counters: summary.counters,
            spans: summary.spans as u64,
            records: summary.records as u64,
        }
    }

    /// The value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Host seconds of [`Simulation::run`].
    pub run_s: f64,
    /// The JCT witness.
    pub jct: JctBits,
    /// Jobs not finished by the cap.
    pub unfinished: usize,
    /// Problems the output check found (empty when the report is
    /// consistent).
    pub problems: Vec<String>,
    /// Simulated mean JCT, seconds.
    pub avg_jct_s: f64,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// Telemetry totals (traced runs only).
    pub trace: Option<TraceTotals>,
    /// The shim's log (wrapped runs only).
    pub shim: Option<ShimLog>,
}

impl Prepared {
    /// Runs the simulation to completion, timing [`Simulation::run`].
    pub fn run(mut self, jobs: usize) -> RunResult {
        let start = Instant::now();
        let report = std::hint::black_box(self.sim.run());
        let run_s = start.elapsed().as_secs_f64();
        let mut jct: JctBits = report
            .jct
            .iter()
            .map(|&(id, t)| (id.0, t.to_bits()))
            .collect();
        jct.sort_unstable();
        RunResult {
            run_s,
            problems: check_report(&report, &jct, jobs),
            jct,
            unfinished: report.unfinished_jobs,
            avg_jct_s: report.avg_jct(),
            makespan_s: report.makespan,
            trace: self
                .tel
                .is_enabled()
                .then(|| TraceTotals::collect(&self.tel)),
            shim: self.shim.map(|log| log.borrow().clone()),
        }
    }
}

/// Checks one report on its own: every submitted job finished exactly
/// once with a finite positive JCT, and each job's JCT decomposition
/// (queue + run + overhead + stall) sums to its JCT.
fn check_report(report: &SimReport, jct: &JctBits, jobs: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if jct.len() != jobs || jct.iter().enumerate().any(|(i, &(id, _))| id != i as u64) {
        problems.push(format!(
            "{} JCTs reported for {jobs} jobs, or job ids not 0..{jobs}",
            jct.len()
        ));
    }
    for &(id, bits) in jct {
        let t = f64::from_bits(bits);
        if !(t.is_finite() && t > 0.0) {
            problems.push(format!("job {id}: JCT {t} is not a positive finite time"));
        }
    }
    for b in &report.breakdown {
        if let Some(t) = b.jct {
            if (b.total() - t).abs() > 1e-6 * t.max(1.0) {
                problems.push(format!(
                    "job {}: JCT phases sum to {} but JCT is {t}",
                    b.job.0,
                    b.total()
                ));
            }
        }
    }
    problems
}
