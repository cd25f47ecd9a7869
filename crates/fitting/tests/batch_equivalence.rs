//! Bit-identity proofs for the PR-8 batched SoA fitting engine.
//!
//! `fit_batch` must return, for every job in a batch, *exactly* what a
//! scalar `fit_incremental` call with the same inputs would have
//! returned — same coefficient bits, same error variants — and leave the
//! job's `FitSession` in an equivalent state (proven behaviorally: the
//! sessions keep matching on every subsequent fit, so the carried warm
//! index and preprocessing state must agree). Histories are ragged
//! (every lane a different length), batches span 1..3× the lane width,
//! and the degenerate cases (≤ 2 distinct steps, all-NaN, flat `hi == 0`
//! grids) ride along in mixed groups so lane desynchronization would be
//! caught.

use optimus_fitting::preprocess::LossSample;
use optimus_fitting::{
    fit_batch, BatchFitJob, BatchScratch, FitError, FitSession, LossCurveFitter, LossModel, LANES,
};
use proptest::prelude::*;

/// Deterministic pseudo-random f64 in [0, 1) from an xorshift state.
fn next_unit(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state % 1_000_000) as f64 / 1_000_000.0
}

/// Synthetic loss history with spikes, dips and NaNs (the same family
/// as the scalar equivalence suite's).
fn history(seed: u64, n: usize) -> Vec<LossSample> {
    let mut state = seed | 1;
    let beta0 = 0.01 + next_unit(&mut state) * 0.4;
    let beta1 = 0.5 + next_unit(&mut state) * 2.0;
    let beta2 = next_unit(&mut state) * 0.3;
    let scale = 0.5 + next_unit(&mut state) * 9.5;
    (0..n)
        .map(|k| {
            let base = scale * (1.0 / (beta0 * k as f64 + beta1) + beta2);
            let jitter = 1.0 + (next_unit(&mut state) - 0.5) * 0.05;
            let roll = next_unit(&mut state);
            let l = if roll < 0.01 {
                base * 50.0 // spike
            } else if roll < 0.02 {
                base * 0.001 // dip
            } else if roll < 0.025 {
                f64::NAN
            } else {
                base * jitter
            };
            (k as u64, l)
        })
        .collect()
}

fn assert_same_outcome(
    scalar: &Result<LossModel, FitError>,
    batched: &Result<LossModel, FitError>,
    ctx: &str,
) {
    match (scalar, batched) {
        (Ok(r), Ok(f)) => {
            assert_eq!(r.beta0.to_bits(), f.beta0.to_bits(), "beta0 {ctx}");
            assert_eq!(r.beta1.to_bits(), f.beta1.to_bits(), "beta1 {ctx}");
            assert_eq!(r.beta2.to_bits(), f.beta2.to_bits(), "beta2 {ctx}");
            assert_eq!(r.scale.to_bits(), f.scale.to_bits(), "scale {ctx}");
            assert_eq!(
                r.residual_ss.to_bits(),
                f.residual_ss.to_bits(),
                "residual_ss {ctx}"
            );
        }
        (Err(re), Err(fe)) => assert_eq!(re, fe, "error {ctx}"),
        (r, f) => panic!("outcome diverged {ctx}: scalar {r:?} vs batched {f:?}"),
    }
}

/// Drives `njobs` ragged histories through `rounds` growth rounds, one
/// scalar session set and one batched session set, comparing every
/// outcome. `grow` decides how many samples each job gains per round
/// (possibly zero — an all-clean lane sits in the batch with an
/// unchanged history).
fn drive(seed: u64, njobs: usize, rounds: usize, fitter: &LossCurveFitter) {
    let mut state = seed | 1;
    let histories: Vec<Vec<LossSample>> = (0..njobs)
        .map(|i| {
            let n = 3 + (next_unit(&mut state) * 220.0) as usize;
            history(seed.wrapping_add(i as u64 * 7919), n)
        })
        .collect();
    let mut scalar_sessions: Vec<FitSession> = (0..njobs).map(|_| FitSession::new()).collect();
    let mut batch_sessions: Vec<FitSession> = (0..njobs).map(|_| FitSession::new()).collect();
    let mut lens: Vec<usize> = histories.iter().map(|h| h.len().min(3)).collect();
    let mut scratch = BatchScratch::new();

    for round in 0..rounds {
        let prev: Vec<usize> = lens.clone();
        for (i, h) in histories.iter().enumerate() {
            let grow = (next_unit(&mut state) * 40.0) as usize; // may be 0
            lens[i] = (lens[i] + grow).min(h.len());
        }

        // Scalar reference: one fit_incremental per job.
        let scalar: Vec<Result<LossModel, FitError>> = (0..njobs)
            .map(|i| {
                fitter.fit_incremental(&histories[i][..lens[i]], prev[i], &mut scalar_sessions[i])
            })
            .collect();

        // Batched: all jobs in one call.
        let mut jobs: Vec<BatchFitJob<'_>> = histories
            .iter()
            .zip(batch_sessions.iter_mut())
            .enumerate()
            .map(|(i, (h, session))| BatchFitJob {
                fitter,
                raw: &h[..lens[i]],
                stable_prefix: prev[i],
                session,
            })
            .collect();
        let mut batched = Vec::new();
        fit_batch(&mut jobs, &mut scratch, &mut batched);
        drop(jobs);

        assert_eq!(batched.len(), njobs);
        for i in 0..njobs {
            assert_same_outcome(
                &scalar[i],
                &batched[i],
                &format!("job {i} round {round} (seed {seed})"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ragged batches across growth rounds: every job's batched fit (and
    /// carried session state) matches its scalar fit bit-for-bit.
    #[test]
    fn batched_fits_match_scalar_on_ragged_batches(
        seed in any::<u64>(),
        njobs in 1usize..(3 * LANES),
        rounds in 1usize..5,
        window in 1usize..8,
        normalize in any::<bool>(),
    ) {
        let mut fitter = LossCurveFitter::new().with_window(window);
        if !normalize {
            fitter = fitter.without_normalization();
        }
        drive(seed, njobs, rounds, &fitter);
    }

    /// Single-job batches are the scalar path seen through the batch
    /// driver — a degenerate but load-bearing case (remainder groups).
    #[test]
    fn single_job_batches_match_scalar(
        seed in any::<u64>(),
        rounds in 1usize..6,
    ) {
        drive(seed, 1, rounds, &LossCurveFitter::new());
    }
}

/// Degenerate histories (empty, ≤ 2 distinct steps, all-NaN, flat
/// `hi == 0`) mixed into one group with healthy lanes: per-lane error
/// short-circuits must not disturb their neighbors.
#[test]
fn degenerate_lanes_mixed_with_healthy_lanes() {
    let fitter = LossCurveFitter::new();
    let healthy = history(42, 120);
    let healthy2 = history(1234, 37);
    let raws: Vec<Vec<LossSample>> = vec![
        vec![],
        healthy.clone(),
        vec![(0, 1.0)],
        vec![(5, 2.0), (5, 2.0), (5, 2.0), (5, 2.0)],
        healthy2.clone(),
        vec![(0, f64::NAN), (1, f64::NAN), (2, f64::NAN), (3, f64::NAN)],
        vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)], // flat: hi == 0 grid
        vec![(0, 0.0), (1, 0.0), (2, 0.0)],
        healthy, // second group starts here
    ];
    let n = raws.len();
    let mut scalar_sessions: Vec<FitSession> = (0..n).map(|_| FitSession::new()).collect();
    let mut batch_sessions: Vec<FitSession> = (0..n).map(|_| FitSession::new()).collect();
    let mut scratch = BatchScratch::new();
    // Two passes over the same data through the same sessions: the
    // second exercises warm starts and skip-unchanged preprocessing.
    for pass in 0..2 {
        let scalar: Vec<Result<LossModel, FitError>> = raws
            .iter()
            .zip(scalar_sessions.iter_mut())
            .map(|(raw, s)| fitter.fit_incremental(raw, if pass == 0 { 0 } else { raw.len() }, s))
            .collect();
        let mut jobs: Vec<BatchFitJob<'_>> = raws
            .iter()
            .zip(batch_sessions.iter_mut())
            .map(|(raw, session)| BatchFitJob {
                fitter: &fitter,
                raw,
                stable_prefix: if pass == 0 { 0 } else { raw.len() },
                session,
            })
            .collect();
        let mut batched = Vec::new();
        fit_batch(&mut jobs, &mut scratch, &mut batched);
        for (i, (r, f)) in scalar.iter().zip(batched.iter()).enumerate() {
            assert_same_outcome(r, f, &format!("degenerate lane {i} pass {pass}"));
        }
    }
}

/// Telemetry counters (`loss_curve.fits`, `nnls.solves`,
/// `nnls.fit_failures`, `fit.warm_start_hits`, iteration observations)
/// must match the scalar path's exactly — the simulator's cross-mode
/// ledger diff depends on it.
#[test]
fn batched_telemetry_matches_scalar() {
    use optimus_telemetry::Telemetry;
    let scalar_tel = Telemetry::enabled();
    let batch_tel = Telemetry::enabled();
    let scalar_fitter = LossCurveFitter::new().with_telemetry(scalar_tel.clone());
    let batch_fitter = LossCurveFitter::new().with_telemetry(batch_tel.clone());
    let raws: Vec<Vec<LossSample>> = (0..11)
        .map(|i| history(900 + i as u64, 20 + i * 13))
        .collect();
    let n = raws.len();
    let mut scalar_sessions: Vec<FitSession> = (0..n).map(|_| FitSession::new()).collect();
    let mut batch_sessions: Vec<FitSession> = (0..n).map(|_| FitSession::new()).collect();
    let mut scratch = BatchScratch::new();
    for pass in 0..2 {
        let prefix = |raw: &Vec<LossSample>| if pass == 0 { 0 } else { raw.len() };
        for (raw, s) in raws.iter().zip(scalar_sessions.iter_mut()) {
            let _ = scalar_fitter.fit_incremental(raw, prefix(raw), s);
        }
        let mut jobs: Vec<BatchFitJob<'_>> = raws
            .iter()
            .zip(batch_sessions.iter_mut())
            .map(|(raw, session)| BatchFitJob {
                fitter: &batch_fitter,
                raw,
                stable_prefix: prefix(raw),
                session,
            })
            .collect();
        let mut batched = Vec::new();
        fit_batch(&mut jobs, &mut scratch, &mut batched);
    }
    assert_eq!(
        scalar_tel.summary(),
        batch_tel.summary(),
        "telemetry summaries diverged"
    );
}

/// A history from one of the families whose NNLS solves leave the
/// two-column path: exactly constant curves (β₀ → 0; unnormalized, some
/// entering columns are rejected), curves flat up to 1e-6 noise, curves
/// with a negligible β₀, rising curves (the β₀ column enters and is
/// driven back out), and curves that reach their floor early and sit on
/// it, so β₂ candidates near the floor keep only the early rows.
fn family_history(family: usize, seed: u64, n: usize) -> Vec<LossSample> {
    let mut state = seed | 1;
    let level = 0.05 + next_unit(&mut state) * 20.0;
    let slope = 0.001 + next_unit(&mut state) * 0.05;
    let knee = 2 + (next_unit(&mut state) * 12.0) as usize;
    (0..n)
        .map(|k| {
            let kf = k as f64;
            let l = match family {
                0 => level,
                1 => level * (1.0 + (next_unit(&mut state) - 0.5) * 1e-6),
                2 => 1.0 / (1e-9 * slope * kf + 1.0) + level,
                3 => level * (1.0 + slope * kf),
                _ => level * (1.0 + (knee as f64 - kf).max(0.0) * slope),
            };
            (k as u64, l)
        })
        .collect()
}

/// Fits `raws` at growing prefixes through scalar and batched sessions,
/// comparing every outcome and, at the end, the telemetry summaries.
fn assert_batched_matches_scalar(raws: &[Vec<LossSample>], base: &LossCurveFitter, ctx: &str) {
    use optimus_telemetry::Telemetry;
    let scalar_tel = Telemetry::enabled();
    let batch_tel = Telemetry::enabled();
    let scalar_fitter = base.clone().with_telemetry(scalar_tel.clone());
    let batch_fitter = base.clone().with_telemetry(batch_tel.clone());
    let n = raws.len();
    let mut scalar_sessions: Vec<FitSession> = (0..n).map(|_| FitSession::new()).collect();
    let mut batch_sessions: Vec<FitSession> = (0..n).map(|_| FitSession::new()).collect();
    let mut scratch = BatchScratch::new();
    let mut prev = vec![0usize; n];
    for (round, frac) in [0.25, 0.6, 1.0].into_iter().enumerate() {
        let lens: Vec<usize> = raws
            .iter()
            .map(|r| ((r.len() as f64 * frac) as usize).min(r.len()))
            .collect();
        let scalar: Vec<Result<LossModel, FitError>> = (0..n)
            .map(|i| {
                scalar_fitter.fit_incremental(&raws[i][..lens[i]], prev[i], &mut scalar_sessions[i])
            })
            .collect();
        let mut jobs: Vec<BatchFitJob<'_>> = raws
            .iter()
            .zip(batch_sessions.iter_mut())
            .enumerate()
            .map(|(i, (raw, session))| BatchFitJob {
                fitter: &batch_fitter,
                raw: &raw[..lens[i]],
                stable_prefix: prev[i],
                session,
            })
            .collect();
        let mut batched = Vec::new();
        fit_batch(&mut jobs, &mut scratch, &mut batched);
        for (i, (r, f)) in scalar.iter().zip(batched.iter()).enumerate() {
            assert_same_outcome(r, f, &format!("{ctx} job {i} round {round}"));
        }
        prev = lens;
    }
    assert_eq!(
        scalar_tel.summary(),
        batch_tel.summary(),
        "telemetry diverged {ctx}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-column NNLS solutions and rejected entering columns, mixed
    /// with ordinary curves in ragged groups: after `x` changes, the
    /// batched solver skips the final dual sweep exactly when every
    /// column is passive or rejected, and must sweep otherwise — both
    /// outcomes are exercised here against `fit_incremental`.
    #[test]
    fn single_column_and_rejected_solves_match_scalar(
        seed in any::<u64>(),
        njobs in 1usize..(2 * LANES),
        normalize in any::<bool>(),
    ) {
        let mut state = seed | 1;
        let raws: Vec<Vec<LossSample>> = (0..njobs)
            .map(|i| {
                let n = 3 + (next_unit(&mut state) * 150.0) as usize;
                let pick = (next_unit(&mut state) * 6.0) as usize;
                let job_seed = seed.wrapping_add(i as u64 * 104_729);
                if pick == 5 {
                    history(job_seed, n)
                } else {
                    family_history(pick, job_seed, n)
                }
            })
            .collect();
        let mut fitter = LossCurveFitter::new();
        if !normalize {
            fitter = fitter.without_normalization();
        }
        assert_batched_matches_scalar(&raws, &fitter, &format!("(seed {seed})"));
    }
}

/// Every family in one deterministic batch, so each run covers them all.
#[test]
fn every_single_column_family_matches_scalar() {
    let raws: Vec<Vec<LossSample>> = (0..5)
        .flat_map(|family| [(family, 11, 24), (family, 29, 97)])
        .map(|(family, seed, n)| family_history(family, seed, n))
        .collect();
    for fitter in [
        LossCurveFitter::new(),
        LossCurveFitter::new().without_normalization(),
    ] {
        assert_batched_matches_scalar(&raws, &fitter, "every family");
    }
}
