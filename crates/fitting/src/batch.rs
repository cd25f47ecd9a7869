//! Batched structure-of-arrays loss-curve fitting.
//!
//! [`fit_batch`] runs [`LossCurveFitter::fit_incremental`] for up to
//! [`LANES`] jobs at once by replaying the exact same candidate
//! trajectory per job while executing the numeric work — Gram products,
//! Lawson–Hanson dual vectors, residual accumulation — as fixed-width
//! lane-major passes over structure-of-arrays sample buffers. The inner
//! loops are written so the compiler can vectorize across lanes (no
//! cross-lane reductions, branchless selects, `[f64; LANES]`
//! accumulators), which is where the speedup comes from; on CPUs with
//! avx512f, [`fit_batch`] additionally dispatches to an AVX-512
//! compilation of the passes, with the Gram/RHS sweep hand-vectorized
//! via intrinsics (the dual and overflow-probe sweeps are portable
//! only: they run just on the rounds the Gram cannot certify).
//! Per-lane *control* (grid walk, memoization, golden-section
//! branching, NNLS active-set changes) stays scalar.
//!
//! # Bit-identity
//!
//! Results are bit-identical to `fit_incremental` — models, error
//! variants, `FitSession` state (memo + warm index) and telemetry
//! counters alike; the `batch_equivalence` proptests enforce it. The
//! load-bearing facts:
//!
//! * **Lane interpreters, not lane schedules.** Each lane is a resumable
//!   transcription of `fit_incremental`'s control flow that *requests*
//!   one β₂ evaluation at a time ([`LaneFit::next_request`]); the driver
//!   batches whatever the lanes currently want into one SoA pass per
//!   wave. Memo hits, degenerate `hi == 0` grids and divergent
//!   golden-section paths therefore cannot desynchronize lanes — a lane
//!   that needs no evaluation simply sits a wave out.
//! * **Padding is algebraically inert.** Short histories are padded with
//!   `(k = 0, l = 0.0)` slots. Every candidate has `β₂ ≥ 0`, so a padded
//!   slot's gap `0 − β₂ ≤ 0 ≤ 1e-9` always takes the scalar path's
//!   skip-this-row branch, contributing exactly-`+0.0` terms to every
//!   accumulator. Accumulators never hold `-0.0` (they start at `+0.0`
//!   and `+0.0 + -0.0 = +0.0`), so those terms are bitwise no-ops.
//! * **Gram caching is exact.** `nnls2`'s subproblem Gram/RHS depend on
//!   the rows only, so they are computed once per candidate in pass A
//!   and every active-set solve replays through [`solve_sub2_cached`]
//!   in O(1) — same accumulation order, and the scalar zero-row guards
//!   only ever skip exactly-zero terms.
//! * **Rows are rebuilt, not stored.** Every sweep that needs the
//!   regression rows rebuilds them from `ks`/`ls`/β₂ with the same IEEE
//!   ops (`build_row`), so each rebuild is bitwise the row `nnls2` sees.
//! * **The final dual sweep is dead.** Once `x` has changed and every
//!   column is passive or rejected, `nnls2`'s next entering-column scan
//!   can pick nothing whatever the dual holds, so the lane converges
//!   without that sweep (see `advance_lane`).
//! * **Entering tests are certified from the Gram.** Every other scan
//!   reads the dual only through `w_o > tol` for the one column `o`
//!   outside a one-column passive set `{p}`, or sees `x = 0`, where the
//!   fused sweep *is* pass A's RHS bit for bit. `certify_entry` answers
//!   the sign test from `rhs_o − g_op·x_p` whenever that clears `tol` by
//!   more than a bound on its own and the fused sweep's rounding, so it
//!   decides exactly as the sweep would; one undecided lane makes the
//!   wave run the real sweep (`certified_duals`). `x` is still solved
//!   from the same Gram, so nothing the dual feeds can change.
//! * **The overflow probe reads the Gram.** A non-finite kept-row entry
//!   has a square of `+∞` or NaN, which makes `g00` or `g11`
//!   non-finite; lanes with a finite diagonal have finite rows, and only
//!   a wave with a non-finite diagonal runs the exact probe sweep
//!   (`overflowed_rows`).
//! * **Full-sum abandonment is prefix abandonment.** Residual terms
//!   `e·e` are never NaN (predictions are finite or ±∞, never NaN) and
//!   non-negative, so partial sums are monotone: the full sum exceeds
//!   the bound iff some prefix does, making the scalar path's per-sample
//!   early-exit decision recoverable from the batched full pass.

use crate::error::FitError;
use crate::loss_curve::{FitSession, LossCurveFitter, LossModel};
use crate::nnls::{solve_sub2_cached, NnlsOptions};
use crate::preprocess::{preprocess_losses_incremental, LossSample};
use optimus_telemetry::Telemetry;

/// Fixed lane width of the SoA passes. Eight f64 lanes fill one AVX-512
/// register (`eval_wave` dispatches to hand-vectorized and
/// AVX-512-compiled passes when the CPU has avx512f) or four SSE2 /
/// two AVX2 vectors — wide enough to fill a vector unit, narrow enough
/// that ragged histories within a group waste little padded work.
pub const LANES: usize = 8;

const INV_PHI: f64 = 0.618_033_988_749_895;

/// One job's inputs to [`fit_batch`] — exactly the arguments of a
/// [`LossCurveFitter::fit_incremental`] call.
pub struct BatchFitJob<'a> {
    /// Fitter configuration (grid size, preprocessing, telemetry).
    /// Lanes may use *different* fitters; nothing requires a shared
    /// configuration.
    pub fitter: &'a LossCurveFitter,
    /// Raw loss history.
    pub raw: &'a [LossSample],
    /// Stable-prefix guarantee, as for `fit_incremental`.
    pub stable_prefix: usize,
    /// The job's fit session (preprocessing state, memo, warm index).
    pub session: &'a mut FitSession,
}

/// Reusable SoA buffers for [`fit_batch`]. Create once, pass to every
/// call; buffers grow to the largest group seen and are then reused.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Step indices as f64 (`k as f64`, the scalar path's conversion),
    /// lane-major: sample `s` of lane `j` lives at `s * LANES + j`.
    ks: Vec<f64>,
    /// Preprocessed losses, same layout.
    ls: Vec<f64>,
}

impl BatchScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Batched drop-in for a loop of [`LossCurveFitter::fit_incremental`]
/// calls: appends to `out` one result per job, in order, each
/// bit-identical (result, session state, telemetry) to what the scalar
/// call would have produced. Jobs are processed in groups of [`LANES`].
pub fn fit_batch(
    jobs: &mut [BatchFitJob<'_>],
    scratch: &mut BatchScratch,
    out: &mut Vec<Result<LossModel, FitError>>,
) {
    for group in jobs.chunks_mut(LANES) {
        fit_group(group, scratch, out);
    }
}

/// Per-lane prologue facts computed before the wave loop.
struct Prologue {
    err: Option<FitError>,
    hi: f64,
    scale: f64,
    len: usize,
}

fn fit_group(
    group: &mut [BatchFitJob<'_>],
    scratch: &mut BatchScratch,
    out: &mut Vec<Result<LossModel, FitError>>,
) {
    debug_assert!(group.len() <= LANES);

    // Pass 1 — scalar prologue per lane, exactly `fit_incremental`'s:
    // counter bump, incremental preprocessing, distinct-step and
    // min-loss checks. Errors here short-circuit the lane without
    // touching its memo or warm index, as in the scalar path.
    let mut pro: Vec<Prologue> = Vec::with_capacity(group.len());
    let mut max_len = 0usize;
    for job in group.iter_mut() {
        job.fitter.tel.incr("loss_curve.fits");
        preprocess_losses_incremental(
            job.raw,
            job.fitter.preprocess,
            job.stable_prefix,
            &mut job.session.pre,
        );
        let samples = job.session.pre.samples();
        let scale = job.session.pre.scale();
        let steps_buf = &mut job.session.steps_buf;
        steps_buf.clear();
        steps_buf.extend(samples.iter().map(|&(k, _)| k));
        steps_buf.sort_unstable();
        steps_buf.dedup();
        let distinct = steps_buf.len();
        if distinct < 3 {
            pro.push(Prologue {
                err: Some(FitError::NotEnoughSamples {
                    got: distinct,
                    need: 3,
                }),
                hi: 0.0,
                scale,
                len: 0,
            });
            continue;
        }
        let min_loss = samples
            .iter()
            .map(|&(_, l)| l)
            .fold(f64::INFINITY, f64::min);
        if !min_loss.is_finite() {
            pro.push(Prologue {
                err: Some(FitError::NonFiniteInput {
                    context: "loss samples after preprocessing",
                }),
                hi: 0.0,
                scale,
                len: 0,
            });
            continue;
        }
        let hi = (min_loss - 1e-9).max(0.0);
        max_len = max_len.max(samples.len());
        pro.push(Prologue {
            err: None,
            hi,
            scale,
            len: samples.len(),
        });
    }

    // Pass 2 — gather the SoA sample buffers (padding stays 0.0).
    let width = max_len * LANES;
    scratch.ks.clear();
    scratch.ks.resize(width, 0.0);
    scratch.ls.clear();
    scratch.ls.resize(width, 0.0);
    let mut lens = [0usize; LANES];
    for (j, (job, p)) in group.iter().zip(pro.iter()).enumerate() {
        lens[j] = p.len;
        for (s, &(k, l)) in job.session.pre.samples().iter().take(p.len).enumerate() {
            scratch.ks[s * LANES + j] = k as f64;
            scratch.ls[s * LANES + j] = l;
        }
    }

    // Pass 3 — build the lane interpreters (mutable borrows into each
    // lane's session memo + warm index; `pre` is no longer needed).
    let mut lanes: Vec<LaneFit<'_>> = Vec::with_capacity(group.len());
    for (job, p) in group.iter_mut().zip(pro.iter()) {
        let FitSession {
            memo,
            warm_grid_index,
            ..
        } = &mut *job.session;
        lanes.push(LaneFit::new(
            job.fitter,
            memo,
            warm_grid_index,
            p.hi,
            p.scale,
            p.err.clone(),
        ));
    }

    // Wave loop: collect one evaluation request per still-running lane,
    // execute them as a single SoA pass, feed the outcomes back.
    let mut reqs: [Option<EvalReq>; LANES] = [None; LANES];
    loop {
        let mut any = false;
        for (j, lane) in lanes.iter_mut().enumerate() {
            reqs[j] = lane.next_request();
            any |= reqs[j].is_some();
        }
        if !any {
            break;
        }
        let outs = eval_wave(scratch, max_len, &lens, &reqs, &lanes);
        for (j, lane) in lanes.iter_mut().enumerate() {
            if reqs[j].is_some() {
                lane.consume(&outs[j]);
            }
        }
    }
    for lane in lanes {
        out.push(lane.done.expect("lane finished"));
    }
}

/// One β₂ evaluation wanted by a lane.
#[derive(Clone, Copy)]
struct EvalReq {
    beta2: f64,
    /// Abandonment bound; `f64::INFINITY` means "exact, never abandon"
    /// (the scalar path's `abandon_above: None`).
    bound: f64,
}

/// Outcome of one wave evaluation for one lane — mirrors the scalar
/// path's `CandidateEval`.
#[derive(Clone, Copy)]
enum WaveOut {
    Fit(LossModel),
    Abandoned,
    Failed,
}

/// Where a lane's transcription of `fit_incremental` currently stands.
/// `*Await` states mean an [`EvalReq`] is outstanding; everything else
/// advances inside [`LaneFit::next_request`] (memo hits included).
#[derive(Clone, Copy)]
enum Phase {
    /// Warm-start evaluation of the carried grid index (if any).
    Warm,
    /// Grid scan; `i` is the next index to process.
    Grid {
        i: usize,
    },
    GridAwait {
        i: usize,
    },
    /// Golden-section init: residual at `c`, then at `d`.
    GoldenC,
    GoldenD,
    /// Top of a golden-section iteration (branch not yet taken).
    GoldenStep,
    /// Branch taken; awaiting the residual of the freshly moved `c`/`d`.
    GoldenNeedC,
    GoldenNeedD,
    /// Final midpoint evaluation.
    Final,
    Done,
}

/// Resumable per-lane interpreter of `fit_incremental`'s control flow.
struct LaneFit<'a> {
    memo: &'a mut Vec<(u64, Option<LossModel>)>,
    warm_slot: &'a mut Option<usize>,
    tel: &'a Telemetry,
    steps: usize,
    refine_iters: usize,
    hi: f64,
    scale: f64,
    phase: Phase,
    /// Bit pattern of the candidate an outstanding request is for.
    pending_bits: u64,
    best: Option<(f64, usize, LossModel)>,
    warm_idx: Option<usize>,
    warm_bound: f64,
    a: f64,
    b: f64,
    c: f64,
    d: f64,
    fc: f64,
    fd: f64,
    iter: usize,
    best_model: Option<LossModel>,
    done: Option<Result<LossModel, FitError>>,
}

impl<'a> LaneFit<'a> {
    fn new(
        fitter: &'a LossCurveFitter,
        memo: &'a mut Vec<(u64, Option<LossModel>)>,
        warm_slot: &'a mut Option<usize>,
        hi: f64,
        scale: f64,
        err: Option<FitError>,
    ) -> Self {
        let steps = fitter.grid_points.max(2);
        let mut lane = LaneFit {
            tel: &fitter.tel,
            steps,
            refine_iters: fitter.refine_iters,
            hi,
            scale,
            phase: Phase::Warm,
            pending_bits: 0,
            best: None,
            warm_idx: None,
            warm_bound: f64::INFINITY,
            a: 0.0,
            b: 0.0,
            c: 0.0,
            d: 0.0,
            fc: f64::INFINITY,
            fd: f64::INFINITY,
            iter: 0,
            best_model: None,
            done: None,
            memo,
            warm_slot,
        };
        match err {
            Some(e) => {
                lane.done = Some(Err(e));
                lane.phase = Phase::Done;
            }
            None => {
                // The scalar path clears the memo and resolves the warm
                // index only after the prologue checks pass.
                lane.memo.clear();
                lane.warm_idx = (*lane.warm_slot).filter(|&i| i < steps);
            }
        }
        lane
    }

    fn grid_beta2(&self, i: usize) -> f64 {
        self.hi * i as f64 / (self.steps - 1) as f64
    }

    fn memo_find(&self, bits: u64) -> Option<Option<LossModel>> {
        self.memo.iter().find(|&&(b, _)| b == bits).map(|&(_, m)| m)
    }

    fn finish(&mut self, res: Result<LossModel, FitError>) {
        self.done = Some(res);
        self.phase = Phase::Done;
    }

    /// `fit_incremental`'s grid-scan winner bookkeeping for index `i`.
    fn apply_grid_outcome(&mut self, i: usize, outcome: Option<LossModel>) {
        if let Some(m) = outcome {
            if self
                .best
                .as_ref()
                .is_none_or(|&(r, _, _)| m.residual_ss < r)
            {
                self.best = Some((m.residual_ss, i, m));
            }
        }
    }

    /// Advances through memo hits and phase transitions until an
    /// evaluation is needed (returns the request) or the fit completes
    /// (returns `None`; the result is in `self.done`).
    fn next_request(&mut self) -> Option<EvalReq> {
        loop {
            match self.phase {
                Phase::Done => return None,
                Phase::Warm => {
                    let Some(wi) = self.warm_idx else {
                        self.phase = Phase::Grid { i: 0 };
                        continue;
                    };
                    let beta2 = self.grid_beta2(wi);
                    match self.memo_find(beta2.to_bits()) {
                        Some(m) => {
                            if let Some(m) = m {
                                if m.residual_ss.is_finite() {
                                    self.warm_bound = m.residual_ss;
                                }
                            }
                            self.phase = Phase::Grid { i: 0 };
                        }
                        None => {
                            self.pending_bits = beta2.to_bits();
                            return Some(EvalReq {
                                beta2,
                                bound: f64::INFINITY,
                            });
                        }
                    }
                }
                Phase::Grid { i } => {
                    if i >= self.steps {
                        self.finish_grid();
                        continue;
                    }
                    let beta2 = self.grid_beta2(i);
                    match self.memo_find(beta2.to_bits()) {
                        Some(m) => {
                            self.apply_grid_outcome(i, m);
                            self.phase = Phase::Grid { i: i + 1 };
                        }
                        None => {
                            let mut bound = self.warm_bound;
                            if let Some(&(r, _, _)) = self.best.as_ref() {
                                if r < bound {
                                    bound = r;
                                }
                            }
                            // A non-finite bound disables abandonment,
                            // as in the scalar path.
                            let bound = if bound.is_finite() {
                                bound
                            } else {
                                f64::INFINITY
                            };
                            self.pending_bits = beta2.to_bits();
                            self.phase = Phase::GridAwait { i };
                            return Some(EvalReq { beta2, bound });
                        }
                    }
                }
                Phase::GridAwait { .. } => unreachable!("request outstanding"),
                Phase::GoldenC => match self.memo_find(self.c.to_bits()) {
                    Some(m) => {
                        self.fc = residual_of(m);
                        self.phase = Phase::GoldenD;
                    }
                    None => {
                        self.pending_bits = self.c.to_bits();
                        return Some(EvalReq {
                            beta2: self.c,
                            bound: f64::INFINITY,
                        });
                    }
                },
                Phase::GoldenD => match self.memo_find(self.d.to_bits()) {
                    Some(m) => {
                        self.fd = residual_of(m);
                        self.iter = 0;
                        self.phase = Phase::GoldenStep;
                    }
                    None => {
                        self.pending_bits = self.d.to_bits();
                        return Some(EvalReq {
                            beta2: self.d,
                            bound: f64::INFINITY,
                        });
                    }
                },
                Phase::GoldenStep => {
                    if self.iter >= self.refine_iters {
                        self.phase = Phase::Final;
                        continue;
                    }
                    if self.fc < self.fd {
                        self.b = self.d;
                        self.d = self.c;
                        self.fd = self.fc;
                        self.c = self.b - (self.b - self.a) * INV_PHI;
                        self.phase = Phase::GoldenNeedC;
                    } else {
                        self.a = self.c;
                        self.c = self.d;
                        self.fc = self.fd;
                        self.d = self.a + (self.b - self.a) * INV_PHI;
                        self.phase = Phase::GoldenNeedD;
                    }
                }
                Phase::GoldenNeedC => match self.memo_find(self.c.to_bits()) {
                    Some(m) => {
                        self.fc = residual_of(m);
                        self.iter += 1;
                        self.phase = Phase::GoldenStep;
                    }
                    None => {
                        self.pending_bits = self.c.to_bits();
                        return Some(EvalReq {
                            beta2: self.c,
                            bound: f64::INFINITY,
                        });
                    }
                },
                Phase::GoldenNeedD => match self.memo_find(self.d.to_bits()) {
                    Some(m) => {
                        self.fd = residual_of(m);
                        self.iter += 1;
                        self.phase = Phase::GoldenStep;
                    }
                    None => {
                        self.pending_bits = self.d.to_bits();
                        return Some(EvalReq {
                            beta2: self.d,
                            bound: f64::INFINITY,
                        });
                    }
                },
                Phase::Final => {
                    let beta2 = (self.a + self.b) / 2.0;
                    match self.memo_find(beta2.to_bits()) {
                        Some(m) => {
                            let mut best_model = self.best_model.expect("grid winner");
                            if let Some(m) = m {
                                if m.residual_ss < best_model.residual_ss {
                                    best_model = m;
                                }
                            }
                            self.finish(Ok(best_model));
                        }
                        None => {
                            self.pending_bits = beta2.to_bits();
                            return Some(EvalReq {
                                beta2,
                                bound: f64::INFINITY,
                            });
                        }
                    }
                }
            }
        }
    }

    /// End of the grid scan: warm bookkeeping + golden-section setup.
    fn finish_grid(&mut self) {
        let Some((_, best_idx, grid_best)) = self.best else {
            self.finish(Err(FitError::NoViableModel));
            return;
        };
        if self.warm_idx == Some(best_idx) {
            self.tel.incr("fit.warm_start_hits");
        }
        *self.warm_slot = Some(best_idx);
        let cell = self.hi / (self.steps - 1) as f64;
        self.a = (grid_best.beta2 - cell).max(0.0);
        self.b = (grid_best.beta2 + cell).min(self.hi);
        self.best_model = Some(grid_best);
        if self.b > self.a {
            self.c = self.b - (self.b - self.a) * INV_PHI;
            self.d = self.a + (self.b - self.a) * INV_PHI;
            self.phase = Phase::GoldenC;
        } else {
            self.finish(Ok(grid_best));
        }
    }

    /// Feeds an evaluation outcome back into the interpreter. Exact
    /// evaluations just land in the memo (the next `next_request` call
    /// re-reads it); grid evaluations additionally advance the scan,
    /// because abandoned candidates are *not* memoized.
    fn consume(&mut self, outcome: &WaveOut) {
        match self.phase {
            Phase::GridAwait { i } => {
                match *outcome {
                    WaveOut::Fit(m) => {
                        self.memo.push((self.pending_bits, Some(m)));
                        self.apply_grid_outcome(i, Some(m));
                    }
                    WaveOut::Abandoned => {}
                    WaveOut::Failed => {
                        self.memo.push((self.pending_bits, None));
                    }
                }
                self.phase = Phase::Grid { i: i + 1 };
            }
            Phase::Warm
            | Phase::GoldenC
            | Phase::GoldenD
            | Phase::GoldenNeedC
            | Phase::GoldenNeedD
            | Phase::Final => match *outcome {
                WaveOut::Fit(m) => self.memo.push((self.pending_bits, Some(m))),
                WaveOut::Failed => self.memo.push((self.pending_bits, None)),
                WaveOut::Abandoned => unreachable!("no abandonment bound was set"),
            },
            Phase::Grid { .. } | Phase::GoldenStep | Phase::Done => {
                unreachable!("no request outstanding")
            }
        }
    }
}

fn residual_of(m: Option<LossModel>) -> f64 {
    m.map(|m| m.residual_ss).unwrap_or(f64::INFINITY)
}

/// Per-lane Lawson–Hanson state between lockstep dual passes.
#[derive(Clone, Default)]
struct LaneNnls {
    passive: [bool; 2],
    rejected: [bool; 2],
    iterations: usize,
    running: bool,
    err: Option<FitError>,
}

/// Pass A outputs: everything lane `j`'s NNLS admission and solve need
/// from one sweep over the gathered samples (row overflow is read off
/// the Gram diagonal, see [`overflowed_rows`]).
struct PassA {
    /// Rows with `gap > 1e-9` — the scalar path's kept-row count.
    kept: [u64; LANES],
    g00: [f64; LANES],
    g01: [f64; LANES],
    g11: [f64; LANES],
    rhs0: [f64; LANES],
    rhs1: [f64; LANES],
}

/// Regression row of one sample against candidate `beta2`, exactly as
/// `fit_for_beta2` builds it: `(w·k, w, gap)` with `w = gap²` when
/// `gap > 1e-9`, else the skipped row's three `+0.0`s, plus the keep
/// verdict. Rows are never stored: pass A and every dual sweep rebuild
/// them from `ks`/`ls` with these same IEEE ops (sub, compare, mul,
/// select), so every rebuild is bitwise the same row.
#[inline(always)]
fn build_row(k: f64, l: f64, beta2: f64) -> (f64, f64, f64, bool) {
    let gap = l - beta2;
    let keep = gap > 1e-9;
    let w = gap * gap;
    let r0 = if keep { w * k } else { 0.0 };
    let r1 = if keep { w } else { 0.0 };
    let y = if keep { gap } else { 0.0 };
    (r0, r1, y, keep)
}

/// Pass A, portable form: builds each regression row and accumulates
/// the Gram matrix and RHS in ascending-sample order — the exact order
/// `nnls2` sums them, so every f64 is bit-identical. The kept-row count
/// rides along as an f64 lane of +1.0 increments (exact up to 2⁵³).
fn pass_a_scalar(scratch: &BatchScratch, width: usize, beta2: &[f64; LANES]) -> PassA {
    let mut kept = [0.0_f64; LANES];
    let mut g00 = [0.0_f64; LANES];
    let mut g01 = [0.0_f64; LANES];
    let mut g11 = [0.0_f64; LANES];
    let mut rhs0 = [0.0_f64; LANES];
    let mut rhs1 = [0.0_f64; LANES];
    for (ks, ls) in scratch.ks[..width]
        .chunks_exact(LANES)
        .zip(scratch.ls[..width].chunks_exact(LANES))
    {
        let ks: &[f64; LANES] = ks.try_into().expect("exact chunk");
        let ls: &[f64; LANES] = ls.try_into().expect("exact chunk");
        for j in 0..LANES {
            let (r0, r1, y, keep) = build_row(ks[j], ls[j], beta2[j]);
            kept[j] += if keep { 1.0 } else { 0.0 };
            g00[j] += r0 * r0;
            g01[j] += r0 * r1;
            g11[j] += r1 * r1;
            rhs0[j] += r0 * y;
            rhs1[j] += r1 * y;
        }
    }
    PassA {
        kept: kept.map(|c| c as u64),
        g00,
        g01,
        g11,
        rhs0,
        rhs1,
    }
}

/// Pass A with explicit AVX-512 intrinsics — one fused sweep, eight
/// lanes per `zmm` register. The autovectorizer never vectorizes the
/// scalar form (the select-heavy body defeats SLP), so this path spells
/// out the same dataflow by hand.
///
/// Bit-identity with `pass_a_scalar` holds operation by operation:
/// every intrinsic used (`sub/mul/add_pd`, `cmp_pd GT_OQ`,
/// `maskz_mov`) is lane-wise IEEE 754 with the scalar op's exact
/// semantics (GT_OQ, like `>`, is false on NaN), multiplies and adds
/// stay separate instructions (no FMA contraction), and each
/// accumulator sums in the same ascending-sample order. The only
/// difference from the scalar path is that masked-out products are
/// computed and then discarded — their lanes are overwritten with +0.0
/// by `maskz_mov`, exactly the scalar `else` value. The kept count is a
/// masked add, which leaves unkept lanes as they were — bitwise the
/// scalar path's `+ 0.0` on a count that is never `-0.0`.
///
/// # Safety
///
/// The CPU must support avx512f.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn pass_a_avx512(scratch: &BatchScratch, width: usize, beta2: &[f64; LANES]) -> PassA {
    use std::arch::x86_64::*;
    assert!(width.is_multiple_of(LANES));
    assert!(scratch.ks.len() >= width && scratch.ls.len() >= width);
    // SAFETY: asserted above — `ks`/`ls` hold at least `width`
    // elements and `width` is a multiple of LANES (= 8, one zmm), so
    // each unaligned 8-lane load below stays in bounds.
    unsafe {
        let b2 = _mm512_loadu_pd(beta2.as_ptr());
        let eps = _mm512_set1_pd(1e-9);
        let one = _mm512_set1_pd(1.0);
        let mut kept = _mm512_setzero_pd();
        let mut g00 = _mm512_setzero_pd();
        let mut g01 = _mm512_setzero_pd();
        let mut g11 = _mm512_setzero_pd();
        let mut rhs0 = _mm512_setzero_pd();
        let mut rhs1 = _mm512_setzero_pd();
        let ks_p = scratch.ks.as_ptr();
        let ls_p = scratch.ls.as_ptr();
        let mut off = 0;
        while off < width {
            let ks = _mm512_loadu_pd(ks_p.add(off));
            let ls = _mm512_loadu_pd(ls_p.add(off));
            let gap = _mm512_sub_pd(ls, b2);
            let m: __mmask8 = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(gap, eps);
            let w = _mm512_mul_pd(gap, gap);
            let r0 = _mm512_maskz_mov_pd(m, _mm512_mul_pd(w, ks));
            let r1 = _mm512_maskz_mov_pd(m, w);
            let y = _mm512_maskz_mov_pd(m, gap);
            kept = _mm512_mask_add_pd(kept, m, kept, one);
            g00 = _mm512_add_pd(g00, _mm512_mul_pd(r0, r0));
            g01 = _mm512_add_pd(g01, _mm512_mul_pd(r0, r1));
            g11 = _mm512_add_pd(g11, _mm512_mul_pd(r1, r1));
            rhs0 = _mm512_add_pd(rhs0, _mm512_mul_pd(r0, y));
            rhs1 = _mm512_add_pd(rhs1, _mm512_mul_pd(r1, y));
            off += LANES;
        }
        let mut keptv = [0.0_f64; LANES];
        let mut out = PassA {
            kept: [0; LANES],
            g00: [0.0; LANES],
            g01: [0.0; LANES],
            g11: [0.0; LANES],
            rhs0: [0.0; LANES],
            rhs1: [0.0; LANES],
        };
        _mm512_storeu_pd(keptv.as_mut_ptr(), kept);
        _mm512_storeu_pd(out.g00.as_mut_ptr(), g00);
        _mm512_storeu_pd(out.g01.as_mut_ptr(), g01);
        _mm512_storeu_pd(out.g11.as_mut_ptr(), g11);
        _mm512_storeu_pd(out.rhs0.as_mut_ptr(), rhs0);
        _mm512_storeu_pd(out.rhs1.as_mut_ptr(), rhs1);
        out.kept = keptv.map(|c| c as u64);
        out
    }
}

/// Pass A in the form `use_avx512` selects (the portable one on CPUs
/// without avx512f).
#[inline(always)]
fn pass_a(scratch: &BatchScratch, width: usize, beta2: &[f64; LANES], use_avx512: bool) -> PassA {
    #[cfg(target_arch = "x86_64")]
    if use_avx512 && std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: avx512f was just detected.
        return unsafe { pass_a_avx512(scratch, width, beta2) };
    }
    let _ = use_avx512;
    pass_a_scalar(scratch, width, beta2)
}

/// Which lanes have a kept row with a non-finite entry — the scalar
/// path's row validation, which fails such a solve. `needs` marks the
/// lanes whose verdict is read.
///
/// Certified from pass A's Gram diagonal: a kept row is `(w·k, w)` with
/// `w, k ≥ 0`, so a non-finite entry (`w = ∞`, `w·k = ∞`, or NaN from
/// `∞·0`) has a square of `+∞` or NaN, and a sum of non-negative terms
/// that contains one is non-finite. A lane with finite `g00` and `g11`
/// therefore has finite rows. The converse fails — finite rows whose
/// squares overflow leave the diagonal infinite with every row finite —
/// so a wave with a needed lane whose diagonal is non-finite runs the
/// exact [`overflow_probe`] sweep instead (which, by the same argument,
/// reads `false` for every finite-diagonal lane).
fn overflowed_rows(
    scratch: &BatchScratch,
    width: usize,
    beta2: &[f64; LANES],
    pa: &PassA,
    needs: &[bool; LANES],
) -> [bool; LANES] {
    let certified =
        (0..LANES).all(|j| !needs[j] || (pa.g00[j].is_finite() && pa.g11[j].is_finite()));
    if certified {
        [false; LANES]
    } else {
        overflow_probe(scratch, width, beta2)
    }
}

/// Exact row-overflow probe, portable (it runs only on waves the Gram
/// cannot certify, see [`overflowed_rows`]): accumulates
/// `(r0 − r0) + (r1 − r1)` per lane — +0.0 for finite rows, NaN once a
/// row has a non-finite entry. LLVM cannot fold `x − x` to zero without
/// fast-math, so the check survives optimization.
fn overflow_probe(scratch: &BatchScratch, width: usize, beta2: &[f64; LANES]) -> [bool; LANES] {
    let mut nonfin = [0.0_f64; LANES];
    for (ks, ls) in scratch.ks[..width]
        .chunks_exact(LANES)
        .zip(scratch.ls[..width].chunks_exact(LANES))
    {
        for j in 0..LANES {
            let (r0, r1, _, _) = build_row(ks[j], ls[j], beta2[j]);
            // `x − x` is the NaN probe, not a typo.
            #[allow(clippy::eq_op)]
            {
                nonfin[j] += (r0 - r0) + (r1 - r1);
            }
        }
    }
    nonfin.map(|v| v != 0.0)
}

/// Dual sweep, portable (it runs only on rounds the Gram cannot
/// certify, see [`certified_duals`]): `w = Aᵀ(y − A·x)` per lane, fused
/// rowwise in `nnls2`'s exact order (`acc` starts at `+0.0`, so a `-0.0`
/// product still yields `+0.0`), with each row rebuilt by
/// [`build_row`] instead of read back from a stored copy.
fn dual_sweep(
    scratch: &BatchScratch,
    width: usize,
    beta2: &[f64; LANES],
    x0: &[f64; LANES],
    x1: &[f64; LANES],
) -> ([f64; LANES], [f64; LANES]) {
    let mut w0 = [0.0_f64; LANES];
    let mut w1 = [0.0_f64; LANES];
    for (ks, ls) in scratch.ks[..width]
        .chunks_exact(LANES)
        .zip(scratch.ls[..width].chunks_exact(LANES))
    {
        let ks: &[f64; LANES] = ks.try_into().expect("exact chunk");
        let ls: &[f64; LANES] = ls.try_into().expect("exact chunk");
        for j in 0..LANES {
            let (r0, r1, y, _) = build_row(ks[j], ls[j], beta2[j]);
            let mut acc = 0.0;
            acc += r0 * x0[j];
            acc += r1 * x1[j];
            let resid = y - acc;
            w0[j] += r0 * resid;
            w1[j] += r1 * resid;
        }
    }
    (w0, w1)
}

/// Upper limit on `m` and `g_pp·x_p²` in [`certify_entry`]. Below it
/// every intermediate of the fused dual sweep is finite: each
/// `r_p·x_p ≤ √(g_pp·x_p²)` and each term and partial sum is at most
/// ≈ `m`, all far below `f64::MAX`.
const CERT_LIMIT: f64 = 1e300;

/// Pass B's dual, read from the cached Gram, when that decides every
/// running lane's next entering-column scan exactly as the fused
/// [`dual_sweep`] would; `None` when some lane needs the real sweep.
///
/// A running lane always has a column free to enter (`advance_lane`
/// stops the lane once every column is passive or rejected), so its
/// passive set holds at most one column:
/// * `P = ∅` means `x = 0`, where the fused sweep is pass A's RHS bit
///   for bit (`acc = +0.0`, `resid = y`) — so every lane's first scan is
///   free.
/// * `P = {p}`: the scan reads only `w_o > tol` for the other column
///   `o`, which [`certify_entry`]'s stand-in answers as the sweep
///   would; `w_p` is never read.
fn certified_duals(
    st: &[LaneNnls; LANES],
    x0: &[f64; LANES],
    x1: &[f64; LANES],
    pa: &PassA,
    n: usize,
    tol: f64,
) -> Option<([f64; LANES], [f64; LANES])> {
    let mut w0 = [0.0_f64; LANES];
    let mut w1 = [0.0_f64; LANES];
    for j in 0..LANES {
        if !st[j].running {
            continue;
        }
        match st[j].passive {
            [false, false] => {
                w0[j] = pa.rhs0[j];
                w1[j] = pa.rhs1[j];
            }
            [true, false] => {
                w1[j] = certify_entry(pa.rhs1[j], pa.g01[j], pa.g00[j], x0[j], n, tol)?;
            }
            [false, true] => {
                w0[j] = certify_entry(pa.rhs0[j], pa.g01[j], pa.g11[j], x1[j], n, tol)?;
            }
            [true, true] => return None,
        }
    }
    Some((w0, w1))
}

/// Stand-in for the dual entry `w_o = Σ r_o·(y − r_p·x_p)` of the column
/// outside a one-column passive set `{p}` of an `n`-slot wave: returns
/// `w̃ = rhs_o − g_op·x_p` when `w̃` and the fused sweep's `w_o` are
/// certainly on the same side of `tol`, else `None`.
///
/// Kept rows are non-negative (`r0 = w·k`, `r1 = w`, `y = gap > 1e-9`),
/// dropped and padded rows are exact `+0.0`, and `x_p ≥ 0`. So the sweep
/// and `w̃` each lie within `γ_{n+3}·M` (plus underflow terms) of the
/// exact dual, where `M = Σ r_o·(y + r_p·x_p)`, which the computed
/// `m = rhs_o + g_op·x_p` bounds within a factor `1 + γ_{n+2}`. The
/// margin `E` is 4× the relative part of that bound; its absolute part
/// covers underflow — subnormal products in the sweep, and a subnormal
/// Gram product scaled by `x_p`. DESIGN §12 has the derivation. NaN
/// fails every comparison, so a non-finite input falls back too.
#[inline(always)]
fn certify_entry(rhs_o: f64, g_op: f64, g_pp: f64, x_p: f64, n: usize, tol: f64) -> Option<f64> {
    let t = g_op * x_p;
    let w = rhs_o - t;
    let m = rhs_o + t;
    if !(x_p >= 0.0 && m <= CERT_LIMIT && g_pp * (x_p * x_p) <= CERT_LIMIT) {
        return None;
    }
    let n = (n + 8) as f64;
    let e = 4.0 * n * f64::EPSILON * m + n * f64::MIN_POSITIVE * (1.0 + x_p);
    (w - e > tol || w + e <= tol).then_some(w)
}

/// Executes one wave of β₂ candidate evaluations as SoA passes:
/// Gram/RHS, lockstep NNLS duals, residual accumulation.
///
/// Dispatches to an AVX-512 compilation of the same body when the CPU
/// has it — with eight f64 lanes the accumulator arrays want the wider
/// register file; the arithmetic is lane-wise IEEE either way (rustc
/// performs no FMA contraction), so results are bit-identical across
/// targets.
fn eval_wave(
    scratch: &BatchScratch,
    max_len: usize,
    lens: &[usize; LANES],
    reqs: &[Option<EvalReq>; LANES],
    lanes: &[LaneFit<'_>],
) -> [WaveOut; LANES] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the avx512f requirement was just checked at runtime.
        return unsafe { eval_wave_avx512(scratch, max_len, lens, reqs, lanes) };
    }
    eval_wave_body(scratch, max_len, lens, reqs, lanes, false)
}

/// The wave body compiled with AVX-512 codegen enabled (the
/// `inline(always)` body is compiled with this function's target
/// features).
///
/// # Safety
///
/// The CPU must support avx512f.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn eval_wave_avx512(
    scratch: &BatchScratch,
    max_len: usize,
    lens: &[usize; LANES],
    reqs: &[Option<EvalReq>; LANES],
    lanes: &[LaneFit<'_>],
) -> [WaveOut; LANES] {
    eval_wave_body(scratch, max_len, lens, reqs, lanes, true)
}

#[inline(always)]
fn eval_wave_body(
    scratch: &BatchScratch,
    max_len: usize,
    lens: &[usize; LANES],
    reqs: &[Option<EvalReq>; LANES],
    lanes: &[LaneFit<'_>],
    use_avx512: bool,
) -> [WaveOut; LANES] {
    let mut beta2 = [0.0_f64; LANES];
    let mut active = [false; LANES];
    for j in 0..LANES {
        if let Some(r) = reqs[j] {
            beta2[j] = r.beta2;
            active[j] = true;
        }
    }

    // Pass A — Gram/RHS, one sweep over all samples (see
    // `pass_a_scalar` / `pass_a_avx512`). Inactive lanes accumulate
    // garbage against β₂ = 0 that nothing reads; padded slots take the
    // gap ≤ 1e-9 skip (see module docs).
    let width = max_len * LANES;
    let pa = pass_a(scratch, width, &beta2, use_avx512);

    // Per-lane NNLS admission, with the scalar path's exact telemetry:
    // fewer than 2 rows fails silently (before any counter), a
    // non-finite row counts a solve *and* a failure. Post-preprocessing
    // losses are always finite, so `y` never trips the scalar path's
    // rhs check — only row overflow (`w·k → ∞`) can, which `bad` is.
    let needs: [bool; LANES] = std::array::from_fn(|j| active[j] && pa.kept[j] >= 2);
    let bad = overflowed_rows(scratch, width, &beta2, &pa, &needs);
    let mut out = [WaveOut::Failed; LANES];
    let mut st: [LaneNnls; LANES] = Default::default();
    let mut ran = [false; LANES];
    let opts = NnlsOptions::default();
    for j in 0..LANES {
        if !needs[j] {
            continue; // out[j] stays Failed, no counters — as the scalar path
        }
        lanes[j].tel.incr("nnls.solves");
        if bad[j] {
            lanes[j].tel.incr("nnls.fit_failures");
            continue;
        }
        st[j].running = true;
        ran[j] = true;
    }

    // Pass B — lockstep Lawson–Hanson: each round of entering-column
    // scans reads the dual off the cached Gram where that is certified
    // (`certified_duals`; always for the first round, where x = 0),
    // else from one vectorized dual sweep (rows rebuilt from `ks`/`ls`,
    // see `build_row`); then O(1) per-lane active-set advancement from
    // the cached Gram. Lanes that converge (or fail) sit out the
    // remaining rounds with x frozen, contributing dead work only.
    let mut x0 = [0.0_f64; LANES];
    let mut x1 = [0.0_f64; LANES];
    while st.iter().any(|l| l.running) {
        let certified = certified_duals(&st, &x0, &x1, &pa, max_len, opts.tolerance);
        #[cfg(test)]
        tests::tally_dual_path(certified.is_some());
        let (w0, w1) = match certified {
            Some(w) => w,
            None => dual_sweep(scratch, width, &beta2, &x0, &x1),
        };
        for j in 0..LANES {
            if st[j].running {
                advance_lane(
                    &mut st[j],
                    &mut x0[j],
                    &mut x1[j],
                    [w0[j], w1[j]],
                    [pa.g00[j], pa.g01[j], pa.g11[j]],
                    [pa.rhs0[j], pa.rhs1[j]],
                    lens[j],
                    opts,
                );
            }
        }
    }

    // Lane results: the scalar exit-path residual (`Nnls2Solution::
    // residual_ss`) is never read by the fit — it recomputes the
    // loss-space residual below — so the batched path skips it.
    let mut b0 = [0.0_f64; LANES];
    let mut b1 = [0.0_f64; LANES];
    let mut bb2 = [0.0_f64; LANES];
    // Lanes excluded from the residual pass get a crossed-immediately
    // bound so they never hold up the early exit.
    let mut bnd = [f64::NEG_INFINITY; LANES];
    let mut fitted = [false; LANES];
    for j in 0..LANES {
        if !ran[j] {
            continue;
        }
        if st[j].err.is_some() {
            lanes[j].tel.incr("nnls.fit_failures");
            continue; // out[j] stays Failed
        }
        lanes[j]
            .tel
            .observe("nnls.iterations", st[j].iterations as f64);
        fitted[j] = true;
        b0[j] = x0[j];
        b1[j] = x1[j];
        bb2[j] = beta2[j];
        bnd[j] = reqs[j].expect("active lane").bound;
    }

    // Pass C — loss-space residual, chunked so an all-lanes-abandoned
    // wave can stop early. Partial sums are monotone (terms ≥ 0, never
    // NaN), so the scalar path's per-sample abandonment decision equals
    // the full-sum comparison done afterwards.
    let mut rss = [0.0_f64; LANES];
    let mut s0 = 0usize;
    while s0 < max_len {
        let stop = (s0 + 64).min(max_len);
        for (s, (ks, ls)) in (s0..stop).zip(
            scratch.ks[s0 * LANES..stop * LANES]
                .chunks_exact(LANES)
                .zip(scratch.ls[s0 * LANES..stop * LANES].chunks_exact(LANES)),
        ) {
            let ks: &[f64; LANES] = ks.try_into().expect("exact chunk");
            let ls: &[f64; LANES] = ls.try_into().expect("exact chunk");
            for j in 0..LANES {
                let k = ks[j];
                let l = ls[j];
                let denom = b0[j] * k + b1[j];
                let inv = 1.0 / denom + bb2[j];
                let pred = if denom <= 0.0 { bb2[j] } else { inv };
                let e = pred - l;
                let t = e * e;
                rss[j] += if s < lens[j] { t } else { 0.0 };
            }
        }
        s0 = stop;
        if (0..LANES).all(|j| rss[j] > bnd[j]) {
            break;
        }
    }

    for j in 0..LANES {
        if !fitted[j] {
            continue;
        }
        let bound = reqs[j].expect("active lane").bound;
        out[j] = if bound.is_finite() && rss[j] > bound {
            WaveOut::Abandoned
        } else {
            WaveOut::Fit(LossModel {
                beta0: x0[j],
                beta1: x1[j],
                beta2: beta2[j],
                scale: lanes[j].scale,
                residual_ss: rss[j],
            })
        };
    }
    out
}

/// Advances one lane's Lawson–Hanson state after a dual recompute — the
/// section of [`crate::nnls::nnls2`]'s outer loop between two of them,
/// with every subproblem solved from the cached Gram. `w` is the swept
/// dual or [`certified_duals`]' stand-in, which every entering-column
/// scan here reads alike. Rejecting an entering column leaves `x`
/// unchanged, so the dual is unchanged too and the scalar path's
/// recompute-and-rescan collapses into the `continue` here.
#[allow(clippy::too_many_arguments)]
fn advance_lane(
    st: &mut LaneNnls,
    x0: &mut f64,
    x1: &mut f64,
    w: [f64; 2],
    gram: [f64; 3],
    rhs: [f64; 2],
    n_rows: usize,
    opts: NnlsOptions,
) {
    let mut x = [*x0, *x1];
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (i, &wi) in w.iter().enumerate() {
            if !st.passive[i] && !st.rejected[i] && wi > opts.tolerance {
                match best {
                    Some((_, bw)) if bw >= wi => {}
                    _ => best = Some((i, wi)),
                }
            }
        }
        let Some((enter, _)) = best else {
            st.running = false; // converged: KKT satisfied
            break;
        };

        st.iterations += 1;
        if st.iterations > opts.max_iterations {
            st.err = Some(FitError::IterationLimit {
                limit: opts.max_iterations,
            });
            st.running = false;
            break;
        }

        st.passive[enter] = true;
        let trial = solve_sub2_cached(gram[0], gram[1], gram[2], rhs, n_rows, st.passive);
        let (z, m, slots) = match trial {
            Ok(v) => v,
            Err(e) => {
                st.err = Some(e);
                st.running = false;
                break;
            }
        };
        let slot = slots[..m]
            .iter()
            .position(|&i| i == enter)
            .expect("enter in P");
        if z[slot] <= opts.tolerance {
            st.passive[enter] = false;
            st.rejected[enter] = true;
            continue; // x unchanged ⇒ dual unchanged ⇒ rescan now
        }

        let mut cached = Some((z, m, slots));
        let mut failed = false;
        loop {
            st.iterations += 1;
            if st.iterations > opts.max_iterations {
                st.err = Some(FitError::IterationLimit {
                    limit: opts.max_iterations,
                });
                st.running = false;
                failed = true;
                break;
            }
            let (z, m, slots) = match cached.take() {
                Some(zs) => zs,
                None => {
                    match solve_sub2_cached(gram[0], gram[1], gram[2], rhs, n_rows, st.passive) {
                        Ok(v) => v,
                        Err(e) => {
                            st.err = Some(e);
                            st.running = false;
                            failed = true;
                            break;
                        }
                    }
                }
            };

            let all_positive = z[..m].iter().all(|&zi| zi > opts.tolerance);
            if all_positive {
                for (slot, &i) in slots[..m].iter().enumerate() {
                    x[i] = z[slot];
                }
                for (xi, &p) in x.iter_mut().zip(st.passive.iter()) {
                    if !p {
                        *xi = 0.0;
                    }
                }
                st.rejected = [false; 2];
                break;
            }

            let mut alpha = f64::INFINITY;
            for (slot, &i) in slots[..m].iter().enumerate() {
                if z[slot] <= opts.tolerance {
                    let denom = x[i] - z[slot];
                    if denom > 0.0 {
                        alpha = alpha.min(x[i] / denom);
                    } else {
                        alpha = 0.0;
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (slot, &i) in slots[..m].iter().enumerate() {
                x[i] += alpha * (z[slot] - x[i]);
            }
            for &i in &slots[..m] {
                if x[i] <= opts.tolerance {
                    x[i] = 0.0;
                    st.passive[i] = false;
                }
            }
            if !st.passive.iter().any(|&p| p) {
                break;
            }
        }
        if failed {
            break;
        }
        // x changed (or P emptied). If every column is passive or
        // rejected, the next entering-column scan cannot pick anything
        // whatever the dual is, so `nnls2`'s final recompute-and-scan
        // would only confirm convergence: skip its sweep. Otherwise a
        // fresh dual sweep is needed before the next scan.
        if st.passive.iter().zip(&st.rejected).all(|(&p, &r)| p || r) {
            st.running = false; // converged: no column can enter
        }
        break;
    }
    *x0 = x[0];
    *x1 = x[1];
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cell::Cell;

    thread_local! {
        /// Pass B dual rounds run on this test thread:
        /// `[certified from the Gram, swept]`.
        static DUAL_PATHS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
    }

    /// Counts one Pass B dual round (`eval_wave_body` calls it in test
    /// builds only).
    pub(super) fn tally_dual_path(certified: bool) {
        DUAL_PATHS.with(|c| {
            let mut v = c.get();
            v[usize::from(!certified)] += 1;
            c.set(v);
        });
    }

    /// Returns and resets this thread's `[certified, swept]` tally.
    fn take_dual_paths() -> [u64; 2] {
        DUAL_PATHS.with(|c| c.replace([0; 2]))
    }

    /// Comparable image of one lane's wave outcome: tag + every f64's bits.
    fn key(out: &WaveOut) -> (u8, [u64; 5]) {
        match *out {
            WaveOut::Fit(m) => (
                0,
                [m.beta0, m.beta1, m.beta2, m.scale, m.residual_ss].map(f64::to_bits),
            ),
            WaveOut::Abandoned => (1, [0; 5]),
            WaveOut::Failed => (2, [0; 5]),
        }
    }

    /// Per-lane sample histories: ragged lengths (one lane empty, so all
    /// of its slots are padding), curves whose NNLS solutions take two
    /// columns, one column (rising and flat curves), and one lane whose
    /// rows overflow. The flat lane is long enough that its one-column
    /// solution's `w₀ ≈ 0` lies inside the certificate's margin of
    /// `tol`, so some waves fall back to the dual sweep.
    fn lane_histories() -> Vec<Vec<(f64, f64)>> {
        let curve = |n: usize, b0: f64, b1: f64, b2: f64| -> Vec<(f64, f64)> {
            (0..n)
                .map(|k| (k as f64, 1.0 / (b0 * k as f64 + b1) + b2))
                .collect()
        };
        let mut wobbly = curve(57, 0.3, 1.1, 0.4);
        for (s, (_, l)) in wobbly.iter_mut().enumerate() {
            *l *= 1.0 + 0.01 * ((s * 7919 % 13) as f64 - 6.0);
        }
        vec![
            curve(200, 0.05, 1.0, 0.2),
            curve(5, 0.8, 2.0, 0.05),
            wobbly,
            (0..90).map(|k| (k as f64, 1.0 + 0.01 * k as f64)).collect(),
            (0..400).map(|k| (k as f64, 0.7)).collect(),
            vec![],
            (0..12)
                .map(|k| (k as f64, if k == 6 { 1e200 } else { 2.0 }))
                .collect(),
            curve(131, 1e-9, 1.0, 0.3),
        ]
    }

    /// `hists` gathered into lane-major scratch, with each lane's length
    /// and grid top `hi`.
    fn gather(hists: &[Vec<(f64, f64)>]) -> (BatchScratch, usize, [usize; LANES], [f64; LANES]) {
        let mut scratch = BatchScratch::new();
        let max_len = hists.iter().map(Vec::len).max().unwrap_or(0);
        scratch.ks.resize(max_len * LANES, 0.0);
        scratch.ls.resize(max_len * LANES, 0.0);
        let mut lens = [0usize; LANES];
        let mut his = [0.0_f64; LANES];
        for (j, h) in hists.iter().enumerate() {
            lens[j] = h.len();
            let min = h.iter().map(|&(_, l)| l).fold(f64::INFINITY, f64::min);
            his[j] = if min.is_finite() {
                (min - 1e-9).max(0.0)
            } else {
                0.0
            };
            for (s, &(k, l)) in h.iter().enumerate() {
                scratch.ks[s * LANES + j] = k;
                scratch.ls[s * LANES + j] = l;
            }
        }
        (scratch, max_len, lens, his)
    }

    /// One form of the wave kernel, as `eval_wave` would call it.
    type WaveFn = dyn Fn(
        &BatchScratch,
        usize,
        &[usize; LANES],
        &[Option<EvalReq>; LANES],
        &[LaneFit<'_>],
    ) -> [WaveOut; LANES];

    /// Runs one wave per `(multiplier, bound)` setting through `run`
    /// and returns every outcome plus the telemetry it recorded. Lane
    /// `j` evaluates `β₂ = multiplier · hiⱼ`; lanes listed in `inactive`
    /// sit the wave out.
    fn waves(run: &WaveFn) -> (Vec<(u8, [u64; 5])>, optimus_telemetry::TelemetrySummary) {
        let (scratch, max_len, lens, his) = gather(&lane_histories());
        let tel = Telemetry::enabled();
        let fitter = LossCurveFitter::new().with_telemetry(tel.clone());
        let mut memos: Vec<Vec<(u64, Option<LossModel>)>> = vec![Vec::new(); LANES];
        let mut warm: Vec<Option<usize>> = vec![None; LANES];
        let lanes: Vec<LaneFit<'_>> = memos
            .iter_mut()
            .zip(warm.iter_mut())
            .map(|(memo, slot)| LaneFit::new(&fitter, memo, slot, 0.0, 1.5, None))
            .collect();

        let settings: [(f64, f64, &[usize]); 5] = [
            (0.0, f64::INFINITY, &[]),
            (0.5, f64::INFINITY, &[2]),
            (0.97, f64::INFINITY, &[0, 4]),
            (0.3, 1e-12, &[1]), // tiny bound: fitted lanes abandon
            (1.0, f64::INFINITY, &[7]),
        ];
        let mut outs = Vec::new();
        for (mult, bound, inactive) in settings {
            let reqs: [Option<EvalReq>; LANES] = std::array::from_fn(|j| {
                (!inactive.contains(&j)).then_some(EvalReq {
                    beta2: mult * his[j],
                    bound,
                })
            });
            outs.extend(run(&scratch, max_len, &lens, &reqs, &lanes).iter().map(key));
        }
        (outs, tel.summary())
    }

    /// The portable passes (`eval_wave_body(.., false)`) and the AVX-512
    /// passes (`eval_wave_avx512`, i.e. `eval_wave_body(.., true)` under
    /// the AVX-512 codegen production uses) must agree bit for bit on
    /// outcomes, solutions and counters — over waves whose dual rounds
    /// are certified from the Gram and waves that fall back to the
    /// sweep. Without avx512f only the portable form runs; the coverage
    /// checks hold anyway.
    #[test]
    fn portable_and_avx512_waves_are_bit_identical() {
        take_dual_paths();
        let (portable, portable_tel) =
            waves(&|s, n, lens, reqs, lanes| eval_wave_body(s, n, lens, reqs, lanes, false));
        let [certified, swept] = take_dual_paths();
        assert!(
            certified > 0 && swept > 0,
            "waves must take both dual paths: {certified} certified, {swept} swept rounds"
        );
        for tag in 0..3 {
            assert!(
                portable.iter().any(|&(t, _)| t == tag),
                "waves never produced outcome kind {tag}"
            );
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was just detected.
            let (simd, simd_tel) = waves(&|s, n, lens, reqs, lanes| unsafe {
                eval_wave_avx512(s, n, lens, reqs, lanes)
            });
            assert_eq!(take_dual_paths(), [certified, swept], "dual paths diverged");
            assert_eq!(portable, simd, "wave outcomes diverged");
            assert_eq!(portable_tel, simd_tel, "wave telemetry diverged");
        }
    }

    /// Pass A compared directly, portable vs AVX-512, on every f64 it
    /// returns — the wave-level test sees the Gram only through the
    /// solutions it drives.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn portable_and_avx512_passes_are_bit_identical() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return;
        }
        let (scratch, max_len, _, his) = gather(&lane_histories());
        let width = max_len * LANES;
        let bits = |v: [f64; LANES]| v.map(f64::to_bits);
        for mult in [0.0, 0.3, 0.97, 1.0] {
            let beta2: [f64; LANES] = std::array::from_fn(|j| mult * his[j]);
            let p = pass_a(&scratch, width, &beta2, false);
            let v = pass_a(&scratch, width, &beta2, true);
            assert_eq!(p.kept, v.kept, "kept rows at {mult}");
            for (a, b) in [
                (p.g00, v.g00),
                (p.g01, v.g01),
                (p.g11, v.g11),
                (p.rhs0, v.rhs0),
                (p.rhs1, v.rhs1),
            ] {
                assert_eq!(bits(a), bits(b), "pass A at {mult}");
            }
        }
    }

    /// The scalar path's row-validation verdict, written directly: does
    /// some kept row have a non-finite entry?
    fn reference_bad(hist: &[(f64, f64)], beta2: f64) -> bool {
        hist.iter().any(|&(k, l)| {
            let (r0, r1, _, keep) = build_row(k, l, beta2);
            keep && !(r0.is_finite() && r1.is_finite())
        })
    }

    /// `overflowed_rows` (Gram-certified, probe on a non-finite
    /// diagonal) returns the old per-row probe's verdict on every lane
    /// it is asked about — including finite rows whose squares overflow
    /// the Gram, which a Gram-only verdict would wrongly fail — and
    /// skips the probe sweep when every asked lane's diagonal is finite.
    #[test]
    fn overflow_admission_matches_the_row_probe() {
        let normal: Vec<(f64, f64)> = (0..30)
            .map(|k| (k as f64, 1.0 / (0.1 * k as f64 + 1.0)))
            .collect();
        let with = |k: f64, l: f64| {
            let mut h = normal.clone();
            h[10] = (k, l);
            h
        };
        let hists = vec![
            with(10.0, 1e154), // w finite, w·k = ∞
            with(1e10, 1e80),  // finite rows, both squares overflow
            with(1e30, 1e70),  // finite rows, only (w·k)² overflows
            with(10.0, 1e200), // w = ∞
            with(0.0, 1e200),  // w·k = ∞·0 = NaN
            normal.clone(),
            // finite rows whose squares are finite but sum past f64::MAX
            (0..30)
                .map(|k| (k as f64, if k % 10 == 3 { 1e77 } else { 1.0 }))
                .collect(),
            (0..30)
                .map(|k| (2f64.powi(50) + k as f64, 1.0 / (1e-15 * k as f64 + 1.0)))
                .collect(),
        ];
        let (scratch, max_len, _, his) = gather(&hists);
        let width = max_len * LANES;
        let mut probed = 0;
        let mut certified = 0;
        for mult in [0.0, 0.5, 0.999] {
            let beta2: [f64; LANES] = std::array::from_fn(|j| mult * his[j]);
            let pa = pass_a(&scratch, width, &beta2, false);
            let oracle: [bool; LANES] = std::array::from_fn(|j| reference_bad(&hists[j], beta2[j]));
            for needs in [[true; LANES], std::array::from_fn(|j| j == 5 || j == 7)] {
                let needs: [bool; LANES] = std::array::from_fn(|j| needs[j] && pa.kept[j] >= 2);
                let finite = (0..LANES)
                    .all(|j| !needs[j] || (pa.g00[j].is_finite() && pa.g11[j].is_finite()));
                if finite {
                    certified += 1;
                } else {
                    probed += 1;
                }
                let bad = overflowed_rows(&scratch, width, &beta2, &pa, &needs);
                for j in (0..LANES).filter(|&j| needs[j]) {
                    assert_eq!(bad[j], oracle[j], "lane {j} at β₂ multiplier {mult}");
                }
            }
            assert!(
                oracle[0] && oracle[3] && oracle[4],
                "overflow lanes at {mult}"
            );
            assert!(
                !oracle[1] && !oracle[2] && !oracle[6],
                "finite-row lanes at {mult}"
            );
            assert!(
                !pa.g00[1].is_finite() && !pa.g00[2].is_finite() && !pa.g11[6].is_finite(),
                "square-overflow lanes must overflow the Gram at {mult}"
            );
        }
        assert!(
            probed > 0 && certified > 0,
            "{probed} probed, {certified} certified"
        );
    }

    /// History families for the certificate property test.
    const FAMILIES: usize = 6;

    /// One lane's history of `len` samples from family `f`.
    fn planted_history(f: usize, len: usize, rng: &mut ChaCha8Rng) -> Vec<(f64, f64)> {
        let b0 = 10f64.powf(rng.gen_range(-4.0..0.0));
        let b1 = rng.gen_range(0.5..3.0);
        let b2 = rng.gen_range(0.0..0.5);
        let noise = rng.gen_range(0.0..0.03);
        (0..len)
            .map(|s| {
                let k = s as f64;
                let jitter = 1.0 + noise * rng.gen_range(-1.0..1.0);
                match f {
                    // Decaying curves with noise.
                    0 => (k, (1.0 / (b0 * k + b1) + b2) * jitter),
                    // Flat: the fit sits on the β₁ column and w₀ ≈ 0.
                    1 => (k, b1),
                    // Huge step counts.
                    2 => (2f64.powi(45) + k * 1e9, 1.0 / (b0 * k + b1) + b2),
                    // Tiny steps and small gaps: subnormal row entries
                    // and products in the Gram and the sweep.
                    3 => (k * 1e-300, 1e-4 * (1.0 + 1.0 / (k + 1.0)) * jitter),
                    // Gaps near the 1e-9 keep threshold.
                    4 => (k, b2 + if s % 2 == 0 { 2e-9 } else { 1e-9 }),
                    // Rising curves.
                    _ => (k, b2 + 0.01 * k * jitter),
                }
            })
            .collect()
    }

    /// Property: wherever `certified_duals` answers, it decides every
    /// entering-column test exactly as the fused dual sweep — over random lanes, planted families (flat
    /// histories with `w_o ≈ 0`, huge `k`, subnormal products, gaps at
    /// the keep threshold) and `x_p` chosen as the real one-column
    /// solution, within a few ulps of the `w̃ = tol` crossing, or at
    /// random scale. With `P = ∅` it must return the swept dual bit for
    /// bit. Both the decided and the fallback branch must be hit.
    #[test]
    fn certified_entering_tests_decide_as_the_sweep() {
        let tol = NnlsOptions::default().tolerance;
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_cafe);
        let (mut decided, mut undecided, mut empty) = (0u64, 0u64, 0u64);
        for case in 0..400 {
            let hists: Vec<Vec<(f64, f64)>> = (0..LANES)
                .map(|_| {
                    let f = rng.gen_range(0..FAMILIES);
                    let len = rng.gen_range(2..120);
                    planted_history(f, len, &mut rng)
                })
                .collect();
            let (scratch, max_len, _, his) = gather(&hists);
            let width = max_len * LANES;
            let beta2: [f64; LANES] =
                std::array::from_fn(|j| his[j] * rng.gen_range(0.0..1.0_f64).min(0.999_999));
            let pa = pass_a(&scratch, width, &beta2, false);
            let mut x0 = [0.0_f64; LANES];
            let mut x1 = [0.0_f64; LANES];
            let mut passive = [[false; 2]; LANES];
            for j in 0..LANES {
                let mode = rng.gen_range(0..4);
                if mode == 0 || pa.kept[j] < 2 {
                    continue; // P = ∅, x = 0
                }
                let p = rng.gen_range(0..2usize);
                let (rhs_o, rhs_p, g_pp) = if p == 0 {
                    (pa.rhs1[j], pa.rhs0[j], pa.g00[j])
                } else {
                    (pa.rhs0[j], pa.rhs1[j], pa.g11[j])
                };
                let g_op = pa.g01[j];
                let x = match mode {
                    1 => rhs_p / g_pp,
                    2 => {
                        let mut x = (rhs_o - tol) / g_op;
                        for _ in 0..rng.gen_range(0..48) {
                            x = if rng.gen::<bool>() {
                                x.next_up()
                            } else {
                                x.next_down()
                            };
                        }
                        x
                    }
                    _ => 10f64.powf(rng.gen_range(-11.0..160.0)),
                };
                if !(x > tol && x.is_finite()) {
                    continue; // not a passive value: leave P = ∅
                }
                passive[j][p] = true;
                if p == 0 {
                    x0[j] = x;
                } else {
                    x1[j] = x;
                }
            }
            let (s0, s1) = dual_sweep(&scratch, width, &beta2, &x0, &x1);
            for j in (0..LANES).filter(|&j| pa.kept[j] >= 2) {
                let mut st: [LaneNnls; LANES] = Default::default();
                st[j].running = true;
                st[j].passive = passive[j];
                let cert = certified_duals(&st, &x0, &x1, &pa, max_len, tol);
                match passive[j] {
                    [false, false] => {
                        let (w0, w1) = cert.expect("x = 0 is always certified");
                        assert_eq!(
                            (w0[j].to_bits(), w1[j].to_bits()),
                            (s0[j].to_bits(), s1[j].to_bits()),
                            "case {case} lane {j}: P = ∅ must be the sweep bit for bit"
                        );
                        empty += 1;
                    }
                    pas => {
                        let o = usize::from(pas[0]);
                        let swept = [s0[j], s1[j]][o];
                        match cert {
                            Some((w0, w1)) => {
                                let w = [w0[j], w1[j]][o];
                                assert_eq!(
                                    w > tol,
                                    swept > tol,
                                    "case {case} lane {j}: certified w{o} = {w:e}, swept {swept:e}, x = ({:e}, {:e})",
                                    x0[j],
                                    x1[j]
                                );
                                decided += 1;
                            }
                            None => undecided += 1,
                        }
                    }
                }
            }
        }
        assert!(
            decided > 0 && undecided > 0 && empty > 0,
            "branches: {decided} decided, {undecided} undecided, {empty} with P = ∅"
        );
    }

    /// A planted lane where rounding puts `w̃ = rhs_o − g_op·x_p` and
    /// the swept dual on opposite sides of `tol`: the certificate must
    /// fall back there. A zero margin, or taking the Gram's verdict
    /// without the fallback, decides this lane wrongly.
    #[test]
    fn certificate_falls_back_where_rounding_straddles_tol() {
        let tol = NnlsOptions::default().tolerance;
        let mut hist: Vec<(f64, f64)> = (0..300)
            .map(|k| (k as f64, 1.0 / (0.02 * k as f64 + 1.0) + 0.1))
            .collect();
        for (s, (_, l)) in hist.iter_mut().enumerate() {
            *l *= 1.0 + 0.01 * ((s * 7919 % 13) as f64 - 6.0);
        }
        let hists = vec![hist; LANES];
        let (scratch, max_len, _, his) = gather(&hists);
        let width = max_len * LANES;
        let beta2: [f64; LANES] = std::array::from_fn(|j| his[j] * (0.2 + 0.1 * j as f64));
        let pa = pass_a(&scratch, width, &beta2, false);
        let mut witnesses = 0;
        for p in 0..2 {
            let o = 1 - p;
            let rhs_o = [pa.rhs0, pa.rhs1][o];
            let mut x: [f64; LANES] = std::array::from_fn(|j| (rhs_o[j] - tol) / pa.g01[j]);
            for _ in 0..64 {
                x = x.map(f64::next_down);
            }
            for _ in 0..128 {
                let zeros = [0.0_f64; LANES];
                let (x0, x1) = if p == 0 { (x, zeros) } else { (zeros, x) };
                let (s0, s1) = dual_sweep(&scratch, width, &beta2, &x0, &x1);
                for j in 0..LANES {
                    let gram = rhs_o[j] - pa.g01[j] * x[j];
                    let swept = [s0[j], s1[j]][o];
                    let mut st: [LaneNnls; LANES] = Default::default();
                    st[j].running = true;
                    st[j].passive[p] = true;
                    let cert = certified_duals(&st, &x0, &x1, &pa, max_len, tol);
                    if (gram > tol) != (swept > tol) {
                        witnesses += 1;
                        assert!(
                            cert.is_none(),
                            "lane {j}: w̃ = {gram:e} and swept {swept:e} straddle tol, yet certified"
                        );
                    }
                    if let Some((w0, w1)) = cert {
                        assert_eq!([w0[j], w1[j]][o] > tol, swept > tol, "lane {j}");
                    }
                }
                x = x.map(f64::next_up);
            }
        }
        assert!(
            witnesses > 0,
            "no lane straddled tol: the planted crossing missed"
        );
    }

    /// A planted lane whose fused sweep overflows: row 0 (`k = 0`, so
    /// `r0 = 0`) has `r1·x1 = ∞`, so its term is `0·(−∞) = NaN` and the
    /// swept `w0` is NaN (never `> tol`), while the other rows' Gram
    /// gives `w̃0 > tol` with `m` far below `CERT_LIMIT`. Only the
    /// `g_pp·x_p²` guard sees the overflow; the certificate must not
    /// decide.
    #[test]
    fn certificate_falls_back_when_the_sweep_overflows() {
        let tol = NnlsOptions::default().tolerance;
        let mut hist = vec![(0.0, 1e151)];
        hist.extend((1..=10).map(|s| (1e14 * s as f64, 5e-9)));
        let (scratch, max_len, _, _) = gather(&vec![hist; LANES]);
        let width = max_len * LANES;
        let beta2 = [0.0; LANES];
        let pa = pass_a(&scratch, width, &beta2, false);
        let x0 = [0.0; LANES];
        let x1 = [1e8; LANES];
        let (s0, _) = dual_sweep(&scratch, width, &beta2, &x0, &x1);
        let w_gram = pa.rhs0[0] - pa.g01[0] * x1[0];
        assert!(s0[0].is_nan() && w_gram > tol && pa.rhs0[0] + pa.g01[0] * x1[0] < 1.0);
        let mut st: [LaneNnls; LANES] = Default::default();
        st[0].running = true;
        st[0].passive = [false, true];
        assert!(certified_duals(&st, &x0, &x1, &pa, max_len, tol).is_none());
    }
}
