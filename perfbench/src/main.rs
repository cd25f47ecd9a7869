//! `optimus-perfbench` — runs one workload end to end and prints its
//! metrics.
//!
//! ```text
//! optimus-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs untraced simulations back to back for as much of
//! `--seconds` as they fill, at least one, then one traced simulation
//! that is checked but not timed. It reports the end-to-end metrics,
//! medians over the untraced runs. The whole budget goes to the runs
//! `run_s` is the median of: a shared host's speed drifts by a fifth
//! and more in phases of tens of seconds, and the median of a longer
//! stretch of runs drifts less.
//!
//! `--trace 1` alternates untraced and traced simulations for as many
//! pairs as fit in `--seconds`, at least one, and reports the per-layer
//! metrics of the traced run with the median host time, whose
//! attribution sums to its `traced_run_s`.
//!
//! Both time several set-ups before every run (`setup_s` is their
//! median). Every run must give the same bit-exact per-job JCT vector
//! with no job unfinished; a run that does not counts all its jobs as
//! failed and the process exits 1. The last line of standard output is
//! the result as one JSON object.

use optimus_perfbench::{prepare, Instrument, RunResult, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups timed before every run, besides each untraced run's own.
/// They are spread over the whole measurement, not bunched at its start,
/// because a set-up takes about a millisecond and a bunch of them would
/// all fall in one burst of load from other processes on the host.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = value("--workload")
        .ok_or_else(|| format!("--workload is required (one of {})", names.join(", ")))?;
    let workload = Workload::from_name(workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        )
    })?;
    let number = |name: &str, default: u64| -> Result<u64, String> {
        value(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{name} expects a whole number, got {v:?}"))
        })
    };
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace expects 0 or 1, got {n}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 17)?,
        seconds: number("--seconds", 10)?,
        trace,
    })
}

/// Resets the process's peak resident set size to its current size.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size since the last reset, MB.
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The host a result was measured on.
fn host_fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        (
            "optimus_threads",
            std::env::var("OPTIMUS_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
    ]
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    Metric { name, value, unit }
}

struct Measured {
    setups: Vec<(f64, f64, f64)>,
    untraced: Vec<RunResult>,
    traced: Vec<RunResult>,
    peak_rss_mb: f64,
}

fn measure(args: &Args) -> std::io::Result<Measured> {
    let w = args.workload;
    let untraced = Instrument {
        traced: false,
        // In per-layer mode the untraced runs are wrapped too, for the
        // decision time without telemetry; end-to-end runs time the
        // program exactly as a user runs it.
        shim: args.trace,
    };
    let traced = Instrument {
        traced: true,
        shim: true,
    };
    let mut out = Measured {
        setups: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let set_up = |out: &mut Measured| {
        for _ in 0..SETUP_REPS {
            let p = prepare(w, args.seed, untraced);
            out.setups.push((p.generate_s, p.new_s, p.setup_s));
        }
    };
    let run_traced = |out: &mut Measured| {
        set_up(out);
        out.traced.push(prepare(w, args.seed, traced).run(w.jobs()));
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    loop {
        let step = Instant::now();
        set_up(&mut out);
        // Peak memory is read over the first untraced run only: later
        // runs start from a heap grown by the runs before them.
        let first = out.untraced.is_empty();
        if first {
            reset_peak_rss()?;
        }
        let p = prepare(w, args.seed, untraced);
        out.setups.push((p.generate_s, p.new_s, p.setup_s));
        out.untraced.push(p.run(w.jobs()));
        if first {
            out.peak_rss_mb = peak_rss_mb()?;
        }
        if args.trace {
            run_traced(&mut out);
        }
        // Stop when another step like this one would overrun the budget;
        // without `--trace`, keep room for the closing traced run, which
        // takes up to a half longer than an untraced one.
        let step = step.elapsed();
        let needed = if args.trace { step } else { step * 5 / 2 };
        if start.elapsed() + needed > budget {
            break;
        }
    }
    if !args.trace {
        // Checked against the untraced runs, never timed: proves on every
        // invocation that telemetry and the shim change no decision.
        run_traced(&mut out);
    }
    Ok(out)
}

/// The output check. Returns `(attempted, failed)` job counts.
fn check(w: Workload, meas: &Measured) -> (u64, u64) {
    let jobs = w.jobs() as u64;
    let witness = &meas.untraced[0].jct;
    let mut attempted = 0;
    let mut failed = 0;
    let runs = meas.untraced.iter().map(|r| ("untraced", r));
    for (i, (kind, r)) in runs
        .chain(meas.traced.iter().map(|r| ("traced", r)))
        .enumerate()
    {
        attempted += jobs;
        let mut problems = r.problems.clone();
        if r.unfinished > 0 {
            problems.push(format!("{} jobs unfinished at the cap", r.unfinished));
        }
        if &r.jct != witness {
            problems.push("per-job JCT vector differs from the first untraced run".into());
        }
        if !problems.is_empty() {
            failed += jobs;
            for p in problems.iter().take(5) {
                eprintln!("output check: run {i} ({kind}): {p}");
            }
        }
    }
    (attempted, failed)
}

fn end_to_end(meas: &Measured) -> Vec<Metric> {
    let first = &meas.untraced[0];
    vec![
        m(
            "run_s",
            median(&meas.untraced.iter().map(|r| r.run_s).collect::<Vec<_>>()),
            "s",
        ),
        m(
            "setup_s",
            median(&meas.setups.iter().map(|s| s.2).collect::<Vec<_>>()),
            "s",
        ),
        m("peak_rss_mb", meas.peak_rss_mb, "MB"),
        m("avg_jct_s", first.avg_jct_s, "s"),
        m("makespan_s", first.makespan_s, "s"),
    ]
}

/// The traced run with the median host time (lower middle for an even
/// count), so its attribution sums to a representative total.
fn representative(runs: &[RunResult]) -> &RunResult {
    let mut order: Vec<&RunResult> = runs.iter().collect();
    order.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    order[(order.len() - 1) / 2]
}

fn per_layer(meas: &Measured) -> (Vec<Metric>, String) {
    let rep = representative(&meas.traced);
    let t = rep.trace.as_ref().expect("traced run has telemetry totals");
    let shim = rep.shim.as_ref().expect("traced run is wrapped");
    let c = |name: &str| t.counter(name) as f64;
    let traced_run_s = rep.run_s;
    let schedule_s: f64 = shim.call_s.iter().sum();
    let round_other_s = t.round_s - t.refit_s - schedule_s;
    let engine_s = traced_run_s - t.round_s;
    let uncovered_s = traced_run_s - t.refit_s - t.decision_s;
    let mut calls_ms: Vec<f64> = shim.call_s.iter().map(|s| s * 1e3).collect();
    calls_ms.sort_by(f64::total_cmp);
    let untraced_schedule_s = median(
        &meas
            .untraced
            .iter()
            .map(|r| r.shim.as_ref().map_or(0.0, |s| s.call_s.iter().sum()))
            .collect::<Vec<_>>(),
    );
    let run_s = median(&meas.untraced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_median = median(&meas.traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let fits = c("loss_curve.fits");
    let dirty_skipped = c("fit.dirty_skipped");
    let d = shim.delta;
    let metrics = vec![
        m("traced_run_s", traced_run_s, "s"),
        m("simulator.rounds", t.rounds as f64, "count"),
        m("simulator.round_s", t.round_s, "s"),
        m("simulator.engine_s", engine_s, "s"),
        m("simulator.round_other_s", round_other_s, "s"),
        m("simulator.uncovered_s", uncovered_s, "s"),
        m(
            "simulator.events_scheduled",
            c("sim.events_scheduled"),
            "count",
        ),
        m("simulator.waves", c("sim.waves"), "count"),
        m(
            "simulator.new_s",
            median(&meas.setups.iter().map(|s| s.1).collect::<Vec<_>>()),
            "s",
        ),
        m("fitting.refit_s", t.refit_s, "s"),
        m(
            "fitting.refit_share",
            ratio(t.refit_s, traced_run_s),
            "ratio",
        ),
        m("fitting.fits", fits, "count"),
        m("fitting.dirty_skipped", dirty_skipped, "count"),
        m(
            "fitting.fit_ratio",
            ratio(fits, fits + dirty_skipped),
            "ratio",
        ),
        m("fitting.us_per_fit", ratio(t.refit_s * 1e6, fits), "us"),
        m(
            "fitting.us_per_round",
            ratio(t.refit_s * 1e6, t.rounds as f64),
            "us",
        ),
        m("fitting.nnls_solves", c("nnls.solves"), "count"),
        m(
            "fitting.nnls_iters_per_solve",
            ratio(t.nnls_iterations, c("nnls.solves")),
            "count",
        ),
        m("fitting.warm_start_hits", c("fit.warm_start_hits"), "count"),
        m("core.schedule_calls", shim.call_s.len() as f64, "count"),
        m("core.schedule_s", schedule_s, "s"),
        m("core.untraced_schedule_s", untraced_schedule_s, "s"),
        m("core.schedule_ms_p50", median(&calls_ms), "ms"),
        m(
            "core.schedule_ms_max",
            calls_ms.last().copied().unwrap_or(0.0),
            "ms",
        ),
        m("core.alloc_s", t.alloc_s, "s"),
        m("core.place_s", t.place_s, "s"),
        m(
            "core.marginal_gain_evals",
            c("alloc.marginal_gain_evals"),
            "count",
        ),
        m("core.heap_pops", c("alloc.heap_pops"), "count"),
        m(
            "core.placement_index_updates",
            c("placement.index_updates"),
            "count",
        ),
        m(
            "core.packing_retries",
            c("placement.packing_retries"),
            "count",
        ),
        m("core.delta_dirty_jobs", d.dirty_jobs as f64, "count"),
        m("core.replayed_grants", d.replayed_grants as f64, "count"),
        m(
            "core.alloc_full_rounds",
            d.alloc_full_rounds as f64,
            "count",
        ),
        m("core.skipped_rounds", d.skipped_rounds as f64, "count"),
        m(
            "core.place_reused_rounds",
            d.place_reused_rounds as f64,
            "count",
        ),
        m(
            "core.replay_ratio",
            ratio(d.replayed_grants as f64, d.grants as f64),
            "ratio",
        ),
        m("ps.paa_rebalance_moves", c("paa.rebalance_moves"), "count"),
        m(
            "telemetry.overhead_pct",
            (ratio(traced_median, run_s) - 1.0) * 100.0,
            "%",
        ),
        m("telemetry.records", t.records as f64, "count"),
        m("telemetry.spans", t.spans as f64, "count"),
        m(
            "workload.generate_s",
            median(&meas.setups.iter().map(|s| s.0).collect::<Vec<_>>()),
            "s",
        ),
    ];
    let share = |v: f64| 100.0 * ratio(v, traced_run_s);
    let sum = t.refit_s + schedule_s + round_other_s + engine_s;
    let attribution = format!(
        "attribution of the median traced run ({traced_run_s:.4} s):\n\
         \x20 fitting.refit_s          {:>9.4} s {:>5.1} %  (span sched.refit)\n\
         \x20 core.schedule_s          {:>9.4} s {:>5.1} %  (scheduler shim)\n\
         \x20 simulator.round_other_s  {:>9.4} s {:>5.1} %  (round wall - refit - schedule)\n\
         \x20 simulator.engine_s       {:>9.4} s {:>5.1} %  (run - round wall)\n\
         \x20 sum                      {sum:>9.4} s = traced_run_s {traced_run_s:.4} s (residual {:.2e} s)\n\
         \x20 covered by no program span: {uncovered_s:.4} s ({:.1} %) = run - sched.refit - sched.decision\n\
         \x20 round wall is read from sim.round_wall_us count and sum only: its quantiles are bucket-clamped.\n\
         \x20 telemetry inflates decision time: the shim measured {untraced_schedule_s:.4} s untraced \
         (median) against {schedule_s:.4} s in this traced run.",
        t.refit_s,
        share(t.refit_s),
        schedule_s,
        share(schedule_s),
        round_other_s,
        share(round_other_s),
        engine_s,
        share(engine_s),
        sum - traced_run_s,
        share(uncovered_s),
    );
    (metrics, attribution)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: optimus-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let measured = match measure(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: cannot read peak memory from /proc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (attempted, failed) = check(args.workload, &measured);
    let mut fingerprint = vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
    ];
    fingerprint.extend(host_fingerprint());
    fingerprint.push(("untraced_runs", measured.untraced.len().to_string()));
    fingerprint.push(("traced_runs", measured.traced.len().to_string()));
    fingerprint.push(("setups", measured.setups.len().to_string()));
    let (metrics, note) = if args.trace {
        let (metrics, attribution) = per_layer(&measured);
        (metrics, Some(attribution))
    } else {
        (end_to_end(&measured), None)
    };

    for (k, v) in &fingerprint {
        println!("{k:>16}: {v}");
    }
    println!(
        "{:>16}: {failed} of {attempted} job runs ({:.2} %)",
        "failed",
        100.0 * ratio(failed as f64, attempted as f64)
    );
    let times = |runs: &[RunResult]| {
        runs.iter()
            .map(|r| format!("{:.3}", r.run_s))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("{:>16}: {} s", "untraced runs", times(&measured.untraced));
    println!("{:>16}: {} s", "traced runs", times(&measured.traced));
    for x in &metrics {
        println!("{:>32} {:>16.6} {}", x.name, x.value, x.unit);
    }
    if let Some(note) = note {
        println!("{note}");
    }
    let host = fingerprint
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect::<Vec<_>>()
        .join(", ");
    println!("{{\"host\": {{{host}}}}}");
    let body = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(x.name),
                x.value,
                json_string(x.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
