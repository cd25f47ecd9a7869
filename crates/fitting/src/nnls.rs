//! Lawson–Hanson non-negative least squares.
//!
//! Solves `min ‖A·x − b‖₂ subject to x ≥ 0`, the solver the paper uses
//! (via SciPy) for both the convergence-curve fit and the speed-model fit.
//!
//! The implementation is the classical active-set method from Lawson &
//! Hanson, *Solving Least Squares Problems* (1974), ch. 23: maintain a
//! passive set `P` of strictly-positive coordinates, repeatedly add the
//! coordinate with the most positive dual `w = Aᵀ(b − Ax)`, and solve the
//! unconstrained subproblem on `P`, stepping back along the segment to the
//! previous iterate whenever the subproblem solution leaves the feasible
//! region.

use crate::error::FitError;
use crate::linalg::{solve_normal_equations, Matrix};

/// Options controlling the NNLS iteration.
#[derive(Debug, Clone, Copy)]
pub struct NnlsOptions {
    /// Maximum number of outer iterations. The textbook bound is `3·n`,
    /// but we default to a generous multiple to be safe on noisy data.
    pub max_iterations: usize,
    /// Dual-feasibility tolerance: the algorithm stops when every inactive
    /// coordinate has `w_i ≤ tolerance`.
    pub tolerance: f64,
}

impl Default for NnlsOptions {
    fn default() -> Self {
        NnlsOptions {
            max_iterations: 300,
            tolerance: 1e-11,
        }
    }
}

/// The result of an NNLS solve.
#[derive(Debug, Clone)]
pub struct NnlsSolution {
    /// The non-negative coefficient vector.
    pub x: Vec<f64>,
    /// Residual sum of squares `‖A·x − b‖₂²` at the solution.
    pub residual_ss: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
}

/// Solves `min ‖A·x − b‖₂ s.t. x ≥ 0` with default options.
///
/// # Examples
///
/// ```
/// use optimus_fitting::{nnls, Matrix};
///
/// // b = 2·col0 exactly; the negative-leaning col1 must stay at zero.
/// let a = Matrix::from_rows(&[&[1.0, -1.0], &[1.0, -1.0], &[0.0, 1.0]]).unwrap();
/// let sol = nnls(&a, &[2.0, 2.0, 0.0]).unwrap();
/// assert!((sol.x[0] - 2.0).abs() < 1e-9);
/// assert_eq!(sol.x[1], 0.0);
/// ```
pub fn nnls(a: &Matrix, b: &[f64]) -> Result<NnlsSolution, FitError> {
    nnls_with(a, b, NnlsOptions::default())
}

/// Like [`nnls`], but reports into a [`Telemetry`] handle: each call
/// bumps the `nnls.solves` counter and feeds the `nnls.iterations`
/// histogram; failed solves bump `nnls.fit_failures`.
pub fn nnls_traced(
    a: &Matrix,
    b: &[f64],
    tel: &optimus_telemetry::Telemetry,
) -> Result<NnlsSolution, FitError> {
    tel.incr("nnls.solves");
    match nnls(a, b) {
        Ok(sol) => {
            tel.observe("nnls.iterations", sol.iterations as f64);
            Ok(sol)
        }
        Err(e) => {
            tel.incr("nnls.fit_failures");
            Err(e)
        }
    }
}

/// Column count up to which a solve keeps all of its state on the stack
/// (the speed models have 4 or 5 coefficients, the loss curve 2).
const STACK_COLS: usize = 5;

/// Solves `min ‖A·x − b‖₂ s.t. x ≥ 0` with explicit options.
///
/// The normal-equation products `AᵀA` and `Aᵀb` are computed once per
/// solve, and every passive-set subproblem is solved from their
/// `|P|×|P|` slice (Bro & de Jong's FNNLS caching), instead of
/// re-deriving a Gram matrix from the rows at each active-set step.
/// The duals are still swept row by row, so every float matches the
/// textbook formulation bit for bit (DESIGN §8); the `reference_*`
/// tests pin it against that naive solver. Up to five columns no
/// per-solve state touches the heap except the returned `x`.
pub fn nnls_with(a: &Matrix, b: &[f64], opts: NnlsOptions) -> Result<NnlsSolution, FitError> {
    if b.len() != a.rows() {
        return Err(FitError::DimensionMismatch {
            context: "nnls: rhs length != rows",
        });
    }
    for v in b {
        if !v.is_finite() {
            return Err(FitError::NonFiniteInput {
                context: "nnls rhs",
            });
        }
    }
    for r in 0..a.rows() {
        for &v in a.row(r) {
            if !v.is_finite() {
                return Err(FitError::NonFiniteInput {
                    context: "nnls matrix",
                });
            }
        }
    }

    let n = a.cols();
    if n <= STACK_COLS {
        let mut floats = [0.0_f64; 3 * STACK_COLS * STACK_COLS + 4 * STACK_COLS];
        let mut flags = [false; 2 * STACK_COLS];
        let mut p_idx = [0usize; STACK_COLS];
        lawson_hanson(a, b, opts, &mut floats, &mut flags, &mut p_idx)
    } else {
        lawson_hanson(
            a,
            b,
            opts,
            &mut vec![0.0; 3 * n * n + 4 * n],
            &mut vec![false; 2 * n],
            &mut vec![0; n],
        )
    }
}

/// The active-set iteration of [`nnls_with`] on validated input.
/// `floats` (≥ `3n² + 4n`), `flags` (≥ `2n`, all `false`) and `p_idx`
/// (≥ `n`) are the per-solve scratch, `n = a.cols()`.
fn lawson_hanson(
    a: &Matrix,
    b: &[f64],
    opts: NnlsOptions,
    floats: &mut [f64],
    flags: &mut [bool],
    p_idx: &mut [usize],
) -> Result<NnlsSolution, FitError> {
    let n = a.cols();
    let (gram, rest) = floats.split_at_mut(n * n);
    let (sub, rest) = rest.split_at_mut(2 * n * n + n);
    let (atb, rest) = rest.split_at_mut(n);
    let (w, rest) = rest.split_at_mut(n);
    let z = &mut rest[..n];
    // `passive[i]` ⇔ coordinate `i` is in the passive (free) set P.
    // `rejected[i]` ⇔ its trial entry was rejected (non-positive
    // subproblem coefficient) since `x` last changed, which prevents the
    // classic cycling case when a true coefficient sits exactly on the
    // boundary.
    let (passive, rest) = flags.split_at_mut(n);
    let rejected = &mut rest[..n];
    a.gram_into(gram);
    a.tr_mul_vec_into(b, atb);

    let mut x = vec![0.0_f64; n];
    let mut iterations = 0usize;
    // The dual at x = 0 is Aᵀb bit for bit: every `acc` sums only
    // `±0.0` products onto `+0.0`, so each residual is exactly `b[r]`.
    w.copy_from_slice(atb);
    let mut w_current = true;

    loop {
        if !w_current {
            // Dual vector w = Aᵀ(b − A·x) in one row sweep: each row's
            // residual, then its accumulation into `w`, in the order of
            // an `A·x` pass followed by an `Aᵀ·resid` pass.
            w.fill(0.0);
            for (r, &br) in b.iter().enumerate() {
                let row = a.row(r);
                let mut acc = 0.0;
                for (v, xi) in row.iter().zip(x.iter()) {
                    acc += v * xi;
                }
                let resid = br - acc;
                for (wi, v) in w.iter_mut().zip(row.iter()) {
                    *wi += v * resid;
                }
            }
            w_current = true;
        }

        // Pick the most promising inactive, non-rejected coordinate.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if !passive[i] && !rejected[i] && w[i] > opts.tolerance {
                match best {
                    Some((_, bw)) if bw >= w[i] => {}
                    _ => best = Some((i, w[i])),
                }
            }
        }
        let Some((enter, _)) = best else {
            // KKT conditions hold (up to rejected boundary coordinates):
            // done.
            let residual_ss = (0..a.rows())
                .map(|r| {
                    let mut acc = 0.0;
                    for (v, xi) in a.row(r).iter().zip(x.iter()) {
                        acc += v * xi;
                    }
                    (acc - b[r]) * (acc - b[r])
                })
                .sum();
            return Ok(NnlsSolution {
                x,
                residual_ss,
                iterations,
            });
        };

        iterations += 1;
        if iterations > opts.max_iterations {
            return Err(FitError::IterationLimit {
                limit: opts.max_iterations,
            });
        }

        // Trial solve: if the entering coordinate would come out
        // non-positive, entering it cannot reduce the residual — reject
        // it until the iterate changes (the dual stays current).
        passive[enter] = true;
        let mut m = passive_indices(passive, p_idx);
        solve_passive(gram, atb, a.rows(), &p_idx[..m], sub, z)?;
        let slot = p_idx[..m]
            .iter()
            .position(|&i| i == enter)
            .expect("enter in P");
        if z[slot] <= opts.tolerance {
            passive[enter] = false;
            rejected[enter] = true;
            continue;
        }

        // Inner loop: solve the unconstrained subproblem on P; if the
        // solution leaves the feasible region, step back and shrink P.
        // The first pass reuses the trial's solution — the same P.
        let mut trial = true;
        loop {
            iterations += 1;
            if iterations > opts.max_iterations {
                return Err(FitError::IterationLimit {
                    limit: opts.max_iterations,
                });
            }
            if !trial {
                m = passive_indices(passive, p_idx);
                solve_passive(gram, atb, a.rows(), &p_idx[..m], sub, z)?;
            }
            trial = false;
            let (p, z) = (&p_idx[..m], &z[..m]);

            // Any non-positive coordinate in the subproblem solution?
            if z.iter().all(|&zi| zi > opts.tolerance) {
                for (&i, &zi) in p.iter().zip(z) {
                    x[i] = zi;
                }
                for i in 0..n {
                    if !passive[i] {
                        x[i] = 0.0;
                    }
                }
                // The iterate changed: previously rejected coordinates may
                // be viable again.
                rejected.fill(false);
                break;
            }

            // Step length α: largest step toward z that stays feasible.
            let mut alpha = f64::INFINITY;
            for (&i, &zi) in p.iter().zip(z) {
                if zi <= opts.tolerance {
                    let denom = x[i] - zi;
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
            for (&i, &zi) in p.iter().zip(z) {
                x[i] += alpha * (zi - x[i]);
            }
            // Freeze coordinates that hit the boundary.
            for &i in p {
                if x[i] <= opts.tolerance {
                    x[i] = 0.0;
                    passive[i] = false;
                }
            }
            // Defensive: if P became empty the entering variable was bad;
            // exit the inner loop and re-derive duals.
            if !passive.iter().any(|&p| p) {
                break;
            }
        }
        w_current = false;
    }
}

/// Writes the passive coordinates into `p_idx` in ascending order and
/// returns how many there are.
fn passive_indices(passive: &[bool], p_idx: &mut [usize]) -> usize {
    let mut m = 0;
    for (i, &p) in passive.iter().enumerate() {
        if p {
            p_idx[m] = i;
            m += 1;
        }
    }
    m
}

/// Solves the unconstrained least-squares subproblem on the passive
/// columns `p` from the cached products of the whole matrix: the normal
/// equations `G[P,P]·z = (Aᵀb)[P]`, with [`Matrix::lstsq`]'s
/// under-determined check and ridge retry. `z[..|P|]` receives the
/// coefficients in `p` order; `sub` (`2n² + n`) is scratch.
fn solve_passive(
    gram: &[f64],
    atb: &[f64],
    rows: usize,
    p: &[usize],
    sub: &mut [f64],
    z: &mut [f64],
) -> Result<(), FitError> {
    let n = atb.len();
    let m = p.len();
    if rows < m {
        return Err(FitError::NotEnoughSamples { got: rows, need: m });
    }
    let (g, rest) = sub.split_at_mut(m * m);
    let (work, rest) = rest.split_at_mut(m * m);
    let rhs = &mut rest[..m];
    for (si, &i) in p.iter().enumerate() {
        for (sj, &j) in p.iter().enumerate() {
            g[si * m + sj] = gram[i * n + j];
        }
        rhs[si] = atb[i];
    }
    solve_normal_equations(g, rhs, work, &mut z[..m])
}

/// Solution of a specialized two-column NNLS solve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Nnls2Solution {
    /// The non-negative coefficient pair.
    pub x: [f64; 2],
    /// Residual sum of squares at the solution. Unused by the
    /// production fast path (the loss-curve fitter re-evaluates
    /// residuals in loss space) but asserted bit-identical to the
    /// reference solver in tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub residual_ss: f64,
    /// Outer+inner iterations, counted exactly like [`nnls_with`].
    pub iterations: usize,
}

/// Specialized Lawson–Hanson solve for `n × 2` systems — the exact
/// shape of every per-candidate solve in the β₂ scan of
/// [`crate::LossCurveFitter`].
///
/// This is an arithmetic-faithful transcription of the textbook
/// Lawson–Hanson formulation (the `reference_nnls_with` test oracle:
/// per-step submatrix → `Matrix::lstsq`) for
/// `cols == 2`: same accumulation orders, same zero-row skip in the
/// Gram products, same partial-pivot/elimination/back-substitution
/// sequence, same ridge retry, same tie-breaking in the dual argmax —
/// so it returns bit-identical `(x, residual_ss)` (proven by the
/// `nnls2_matches_reference` tests against that oracle). It differs in
/// two ways that cannot change results:
///
/// - **No heap allocations**: the passive set, duals and subproblem all
///   live in fixed-size arrays.
/// - **Trial-solve dedup**: the reference's first inner-loop iteration
///   re-solves exactly the passive set the trial solve just solved;
///   reusing the trial's solution skips that redundant solve (the
///   iteration counter still advances as in the reference).
pub(crate) fn nnls2(
    rows: &[[f64; 2]],
    b: &[f64],
    opts: NnlsOptions,
) -> Result<Nnls2Solution, FitError> {
    if b.len() != rows.len() {
        return Err(FitError::DimensionMismatch {
            context: "nnls: rhs length != rows",
        });
    }
    for v in b {
        if !v.is_finite() {
            return Err(FitError::NonFiniteInput {
                context: "nnls rhs",
            });
        }
    }
    for row in rows {
        for &v in row {
            if !v.is_finite() {
                return Err(FitError::NonFiniteInput {
                    context: "nnls matrix",
                });
            }
        }
    }

    let mut x = [0.0_f64; 2];
    let mut passive = [false; 2];
    let mut rejected = [false; 2];
    let mut iterations = 0usize;

    loop {
        // Dual vector w = Aᵀ(b − A·x), fused rowwise: each row's
        // residual and its two accumulations into `w` happen in the
        // same order as the reference's mul_vec/tr_mul_vec pair.
        let mut w = [0.0_f64; 2];
        for (row, &br) in rows.iter().zip(b.iter()) {
            let mut acc = 0.0;
            acc += row[0] * x[0];
            acc += row[1] * x[1];
            let resid = br - acc;
            w[0] += row[0] * resid;
            w[1] += row[1] * resid;
        }

        let mut best: Option<(usize, f64)> = None;
        for i in 0..2 {
            if !passive[i] && !rejected[i] && w[i] > opts.tolerance {
                match best {
                    Some((_, bw)) if bw >= w[i] => {}
                    _ => best = Some((i, w[i])),
                }
            }
        }
        let Some((enter, _)) = best else {
            let mut rss = 0.0;
            for (row, &br) in rows.iter().zip(b.iter()) {
                let mut acc = 0.0;
                acc += row[0] * x[0];
                acc += row[1] * x[1];
                let d = acc - br;
                rss += d * d;
            }
            return Ok(Nnls2Solution {
                x,
                residual_ss: rss,
                iterations,
            });
        };

        iterations += 1;
        if iterations > opts.max_iterations {
            return Err(FitError::IterationLimit {
                limit: opts.max_iterations,
            });
        }

        passive[enter] = true;
        let (z, m, slots) = solve_sub2(rows, b, passive)?;
        let slot = slots[..m]
            .iter()
            .position(|&i| i == enter)
            .expect("enter in P");
        if z[slot] <= opts.tolerance {
            passive[enter] = false;
            rejected[enter] = true;
            continue;
        }

        // The first inner iteration would re-solve the passive set the
        // trial just solved; hand it the trial's solution instead.
        let mut cached = Some((z, m, slots));
        loop {
            iterations += 1;
            if iterations > opts.max_iterations {
                return Err(FitError::IterationLimit {
                    limit: opts.max_iterations,
                });
            }
            let (z, m, slots) = match cached.take() {
                Some(zs) => zs,
                None => solve_sub2(rows, b, passive)?,
            };

            let all_positive = z[..m].iter().all(|&zi| zi > opts.tolerance);
            if all_positive {
                for (slot, &i) in slots[..m].iter().enumerate() {
                    x[i] = z[slot];
                }
                for i in 0..2 {
                    if !passive[i] {
                        x[i] = 0.0;
                    }
                }
                rejected = [false; 2];
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
                    passive[i] = false;
                }
            }
            if !passive.iter().any(|&p| p) {
                break;
            }
        }
    }
}

/// Subproblem solve restricted to the passive columns: the `cols ≤ 2`
/// specialization of the per-step submatrix `Matrix::lstsq` (Gram with
/// zero-row skip, Aᵀb, Gaussian solve, ridge retry on singularity).
/// Returns `(z, |P|, P-indices)` with `z` in P-slot order.
fn solve_sub2(
    rows: &[[f64; 2]],
    b: &[f64],
    passive: [bool; 2],
) -> Result<([f64; 2], usize, [usize; 2]), FitError> {
    let mut slots = [0usize; 2];
    let mut m = 0usize;
    for (i, &p) in passive.iter().enumerate() {
        if p {
            slots[m] = i;
            m += 1;
        }
    }
    if rows.len() < m {
        return Err(FitError::NotEnoughSamples {
            got: rows.len(),
            need: m,
        });
    }
    if m == 1 {
        let j = slots[0];
        let mut g = 0.0;
        for row in rows {
            let v = row[j];
            if v == 0.0 {
                continue;
            }
            g += v * v;
        }
        let mut rhs = 0.0;
        for (row, &br) in rows.iter().zip(b.iter()) {
            rhs += row[j] * br;
        }
        let z = match solve1(g, rhs) {
            Ok(z) => z,
            Err(FitError::SingularSystem) => {
                let lambda = 1e-10 * (g / 1.0).max(1e-30);
                solve1(g + lambda, rhs)?
            }
            Err(e) => return Err(e),
        };
        Ok(([z, 0.0], 1, slots))
    } else {
        let mut g00 = 0.0;
        let mut g01 = 0.0;
        let mut g11 = 0.0;
        for row in rows {
            let (r0, r1) = (row[0], row[1]);
            if r0 != 0.0 {
                g00 += r0 * r0;
                g01 += r0 * r1;
            }
            if r1 != 0.0 {
                g11 += r1 * r1;
            }
        }
        let mut rhs = [0.0_f64; 2];
        for (row, &br) in rows.iter().zip(b.iter()) {
            rhs[0] += row[0] * br;
            rhs[1] += row[1] * br;
        }
        let z = match solve2([g00, g01, g01, g11], rhs) {
            Ok(z) => z,
            Err(FitError::SingularSystem) => {
                let mut trace = 0.0;
                trace += g00;
                trace += g11;
                let lambda = 1e-10 * (trace / 2.0).max(1e-30);
                solve2([g00 + lambda, g01, g01, g11 + lambda], rhs)?
            }
            Err(e) => return Err(e),
        };
        Ok((z, 2, slots))
    }
}

/// [`solve_sub2`] from a precomputed Gram matrix and right-hand side.
///
/// The Gram products `g00/g01/g11` and `rhs` are functions of the rows
/// alone, not of the passive set, so the batched fitter
/// ([`crate::batch`]) computes them once per β₂ candidate and solves
/// every Lawson–Hanson subproblem in O(1) from the cache. Bit-identity
/// with [`solve_sub2`] holds because the scalar path's zero-row guards
/// only ever skip *exactly-zero* terms: adding `+0.0` to a non-negative
/// accumulator returns the same bits (rows are `[w·k, w]` with
/// `w ≥ 0`, so no term is `-0.0`), and the accumulation order over rows
/// is unchanged. `n_rows` is the full row count (`rows.len()` in the
/// scalar path), used only for the under-determined check.
pub(crate) fn solve_sub2_cached(
    g00: f64,
    g01: f64,
    g11: f64,
    rhs2: [f64; 2],
    n_rows: usize,
    passive: [bool; 2],
) -> Result<([f64; 2], usize, [usize; 2]), FitError> {
    let mut slots = [0usize; 2];
    let mut m = 0usize;
    for (i, &p) in passive.iter().enumerate() {
        if p {
            slots[m] = i;
            m += 1;
        }
    }
    if n_rows < m {
        return Err(FitError::NotEnoughSamples {
            got: n_rows,
            need: m,
        });
    }
    if m == 1 {
        let j = slots[0];
        let g = if j == 0 { g00 } else { g11 };
        let rhs = rhs2[j];
        let z = match solve1(g, rhs) {
            Ok(z) => z,
            Err(FitError::SingularSystem) => {
                let lambda = 1e-10 * (g / 1.0).max(1e-30);
                solve1(g + lambda, rhs)?
            }
            Err(e) => return Err(e),
        };
        Ok(([z, 0.0], 1, slots))
    } else {
        let z = match solve2([g00, g01, g01, g11], rhs2) {
            Ok(z) => z,
            Err(FitError::SingularSystem) => {
                let mut trace = 0.0;
                trace += g00;
                trace += g11;
                let lambda = 1e-10 * (trace / 2.0).max(1e-30);
                solve2([g00 + lambda, g01, g01, g11 + lambda], rhs2)?
            }
            Err(e) => return Err(e),
        };
        Ok((z, 2, slots))
    }
}

/// The Gaussian solve behind `Matrix::lstsq` for a 1×1 system.
fn solve1(g: f64, rhs: f64) -> Result<f64, FitError> {
    if g.abs() < 1e-13 {
        return Err(FitError::SingularSystem);
    }
    Ok(rhs / g)
}

/// The Gaussian solve behind `Matrix::lstsq` for a 2×2 row-major
/// system: same partial pivot, elimination-with-zero-factor-skip and
/// back substitution.
fn solve2(g: [f64; 4], rhs: [f64; 2]) -> Result<[f64; 2], FitError> {
    let mut a = g;
    let mut x = rhs;
    // Column 0: partial pivot.
    let mut pivot_row = 0usize;
    let mut pivot_val = a[0].abs();
    let v = a[2].abs();
    if v > pivot_val {
        pivot_val = v;
        pivot_row = 1;
    }
    if pivot_val < 1e-13 {
        return Err(FitError::SingularSystem);
    }
    if pivot_row != 0 {
        a.swap(0, 2);
        a.swap(1, 3);
        x.swap(0, 1);
    }
    let pivot = a[0];
    let factor = a[2] / pivot;
    if factor != 0.0 {
        a[2] -= factor * a[0];
        a[3] -= factor * a[1];
        x[1] -= factor * x[0];
    }
    // Column 1.
    if a[3].abs() < 1e-13 {
        return Err(FitError::SingularSystem);
    }
    // Back substitution.
    x[1] /= a[3];
    let mut acc = x[0];
    acc -= a[1] * x[1];
    x[0] = acc / a[0];
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive Lawson–Hanson formulation [`nnls_with`] replaced, kept
    /// verbatim as the executable specification: every step copies the
    /// passive columns into a fresh submatrix and solves it with
    /// [`Matrix::lstsq`], and every dual allocates `A·x`, the residual
    /// and `Aᵀ·resid`.
    fn reference_nnls_with(
        a: &Matrix,
        b: &[f64],
        opts: NnlsOptions,
    ) -> Result<NnlsSolution, FitError> {
        if b.len() != a.rows() {
            return Err(FitError::DimensionMismatch {
                context: "nnls: rhs length != rows",
            });
        }
        for v in b {
            if !v.is_finite() {
                return Err(FitError::NonFiniteInput {
                    context: "nnls rhs",
                });
            }
        }
        for r in 0..a.rows() {
            for &v in a.row(r) {
                if !v.is_finite() {
                    return Err(FitError::NonFiniteInput {
                        context: "nnls matrix",
                    });
                }
            }
        }

        let n = a.cols();
        let mut x = vec![0.0_f64; n];
        let mut passive = vec![false; n];
        let mut rejected = vec![false; n];
        let mut iterations = 0usize;

        loop {
            let ax = a.mul_vec(&x)?;
            let resid: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect();
            let w = a.tr_mul_vec(&resid)?;

            let mut best: Option<(usize, f64)> = None;
            for i in 0..n {
                if !passive[i] && !rejected[i] && w[i] > opts.tolerance {
                    match best {
                        Some((_, bw)) if bw >= w[i] => {}
                        _ => best = Some((i, w[i])),
                    }
                }
            }
            let Some((enter, _)) = best else {
                let rss = a.residual_ss(&x, b)?;
                return Ok(NnlsSolution {
                    x,
                    residual_ss: rss,
                    iterations,
                });
            };

            iterations += 1;
            if iterations > opts.max_iterations {
                return Err(FitError::IterationLimit {
                    limit: opts.max_iterations,
                });
            }

            passive[enter] = true;
            {
                let p_idx: Vec<usize> = (0..n).filter(|&i| passive[i]).collect();
                let z = reference_solve_subproblem(a, b, &p_idx)?;
                let slot = p_idx.iter().position(|&i| i == enter).expect("enter in P");
                if z[slot] <= opts.tolerance {
                    passive[enter] = false;
                    rejected[enter] = true;
                    continue;
                }
            }

            loop {
                iterations += 1;
                if iterations > opts.max_iterations {
                    return Err(FitError::IterationLimit {
                        limit: opts.max_iterations,
                    });
                }

                let p_idx: Vec<usize> = (0..n).filter(|&i| passive[i]).collect();
                let z = reference_solve_subproblem(a, b, &p_idx)?;

                let all_positive = z.iter().all(|&zi| zi > opts.tolerance);
                if all_positive {
                    for (slot, &i) in p_idx.iter().enumerate() {
                        x[i] = z[slot];
                    }
                    for i in 0..n {
                        if !passive[i] {
                            x[i] = 0.0;
                        }
                    }
                    rejected.iter_mut().for_each(|r| *r = false);
                    break;
                }

                let mut alpha = f64::INFINITY;
                for (slot, &i) in p_idx.iter().enumerate() {
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
                for (slot, &i) in p_idx.iter().enumerate() {
                    x[i] += alpha * (z[slot] - x[i]);
                }
                for &i in &p_idx {
                    if x[i] <= opts.tolerance {
                        x[i] = 0.0;
                        passive[i] = false;
                    }
                }
                if !passive.iter().any(|&p| p) {
                    break;
                }
            }
        }
    }

    /// The reference subproblem: a heap copy of the passive columns,
    /// solved by [`Matrix::lstsq`] (coefficients in `p_idx` order).
    fn reference_solve_subproblem(
        a: &Matrix,
        b: &[f64],
        p_idx: &[usize],
    ) -> Result<Vec<f64>, FitError> {
        let mut sub = Matrix::zeros(a.rows(), p_idx.len());
        for r in 0..a.rows() {
            let row = a.row(r);
            for (slot, &i) in p_idx.iter().enumerate() {
                sub.set(r, slot, row[i]);
            }
        }
        sub.lstsq(b)
    }

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    /// Structures planted in the systems the oracle proptest draws, each
    /// aimed at one branch of the solver.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Quantized entries, a fifth of them exactly zero.
        Random,
        /// Few distinct rows repeated: rank-deficient Gram.
        DuplicateRows,
        /// One column an exact multiple of another.
        CollinearColumns,
        /// One column a 1e-7 perturbation of another, with large
        /// targets: both enter and the second pivot needs the ridge
        /// retry.
        NearCollinearColumns,
        /// An all-zero column: every Gram term in it is zero-skipped.
        ZeroColumn,
        /// Fewer rows than columns (under-determined subproblems).
        Wide,
        /// Non-negative matrix against negative targets: x = 0.
        NegativeTargets,
        /// Targets exactly `A·x*` for a sparse non-negative `x*`, with
        /// columns of magnitude ~1e3: the converged dual is rounding
        /// noise, so boundary columns enter with a tiny positive dual and
        /// their trial coefficient is rejected.
        Consistent,
        /// A non-finite target.
        NonFiniteRhs,
        /// A non-finite matrix entry.
        NonFiniteMatrix,
        /// Both: the rhs must be reported first.
        NonFiniteBoth,
        /// The speed-model feature rows `[M/w, 1, w/p, w, p]`.
        SpeedFeatures,
    }

    const SHAPES: [Shape; 12] = [
        Shape::Random,
        Shape::DuplicateRows,
        Shape::CollinearColumns,
        Shape::NearCollinearColumns,
        Shape::ZeroColumn,
        Shape::Wide,
        Shape::NegativeTargets,
        Shape::Consistent,
        Shape::NonFiniteRhs,
        Shape::NonFiniteMatrix,
        Shape::NonFiniteBoth,
        Shape::SpeedFeatures,
    ];

    /// Builds a `rows × cols` system of the given shape from `seed`,
    /// with targets scaled by `1000^scale`: at large scales the rounding
    /// left in a converged dual exceeds the tolerance, so boundary
    /// columns enter and get rejected, and exactly fitted wide systems
    /// try to grow P past the row count.
    fn planted_system(
        shape: Shape,
        rows: usize,
        cols: usize,
        scale: i32,
        seed: u64,
    ) -> (Matrix, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Multiples of 1/4 in [-5, 5], exactly zero one time in five.
        let mut value = move || {
            let r = next();
            if r % 5 == 0 {
                0.0
            } else {
                ((r >> 8) % 41) as f64 / 4.0 - 5.0
            }
        };
        let rows = if matches!(shape, Shape::Wide) {
            rows.min(cols.saturating_sub(1))
        } else {
            rows
        };
        let mut data: Vec<f64> = (0..rows * cols).map(|_| value()).collect();
        let mut b: Vec<f64> = (0..rows).map(|_| value()).collect();
        let at = |r: usize, c: usize| r * cols + c;
        match shape {
            Shape::Random | Shape::Wide => {}
            Shape::DuplicateRows => {
                for r in 2..rows {
                    for c in 0..cols {
                        data[at(r, c)] = data[at(r % 2, c)];
                    }
                }
            }
            Shape::CollinearColumns if cols >= 2 => {
                for r in 0..rows {
                    data[at(r, cols - 1)] = 2.0 * data[at(r, 0)];
                }
            }
            Shape::NearCollinearColumns if cols >= 2 && rows >= 1 => {
                for r in 0..rows {
                    data[at(r, cols - 1)] = data[at(r, 0)];
                }
                data[at(rows - 1, cols - 1)] += 1e-7;
                b.iter_mut().for_each(|v| *v *= 1e6);
            }
            Shape::ZeroColumn => {
                let c = (seed % cols as u64) as usize;
                for r in 0..rows {
                    data[at(r, c)] = 0.0;
                }
            }
            Shape::NegativeTargets => {
                data.iter_mut().for_each(|v| *v = v.abs());
                b.iter_mut().for_each(|v| *v = -v.abs() - 0.25);
            }
            Shape::Consistent => {
                data.iter_mut().for_each(|v| *v *= 1e3);
                let x_star: Vec<f64> = (0..cols).map(|c| [3.0, 0.0, 0.5, 0.0, 1.25][c]).collect();
                for r in 0..rows {
                    let mut acc = 0.0;
                    for c in 0..cols {
                        acc += data[at(r, c)] * x_star[c];
                    }
                    b[r] = acc;
                }
            }
            Shape::NonFiniteRhs | Shape::NonFiniteBoth if rows >= 1 => {
                b[(seed % rows as u64) as usize] = f64::NAN;
                if matches!(shape, Shape::NonFiniteBoth) {
                    data[0] = f64::INFINITY;
                }
            }
            Shape::NonFiniteMatrix if rows >= 1 => {
                data[(seed % (rows * cols) as u64) as usize] = f64::NEG_INFINITY;
            }
            Shape::SpeedFeatures => {
                for r in 0..rows {
                    let p = (next() % 8 + 1) as f64;
                    let w = (next() % 8 + 1) as f64;
                    let feats = [256.0 / w, 1.0, w / p, w, p];
                    for c in 0..cols {
                        data[at(r, c)] = feats[c];
                    }
                    b[r] = 0.05 * feats[0] + 0.3 + 0.01 * feats[2 % cols] + value().abs() * 1e-3;
                }
            }
            _ => {}
        }
        b.iter_mut().for_each(|v| *v *= 1000f64.powi(scale));
        (Matrix::from_vec(rows, cols, data).unwrap(), b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The Gram-cached solver returns exactly what the naive
        /// formulation returns: bit-identical `x` and residual, the same
        /// iteration count, or the same error variant and context.
        #[test]
        fn reference_matches_gram_cached_solver(
            shape in 0..SHAPES.len(),
            rows in 0usize..14,
            cols in 1usize..=5,
            scale in 0i32..3,
            seed in any::<u64>(),
            max_iterations in prop_oneof![Just(300usize), 0usize..4],
        ) {
            let (a, b) = planted_system(SHAPES[shape], rows, cols, scale, seed);
            let opts = NnlsOptions { max_iterations, ..NnlsOptions::default() };
            let ctx = format!(
                "{:?} {rows}x{cols} scale {scale} seed {seed} limit {max_iterations}",
                SHAPES[shape]
            );
            match (reference_nnls_with(&a, &b, opts), nnls_with(&a, &b, opts)) {
                (Ok(r), Ok(f)) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&r.x), bits(&f.x), "x for {}", ctx);
                    prop_assert_eq!(r.residual_ss.to_bits(), f.residual_ss.to_bits(), "rss for {}", ctx);
                    prop_assert_eq!(r.iterations, f.iterations, "iterations for {}", ctx);
                }
                (Err(re), Err(fe)) => prop_assert_eq!(re, fe, "error for {}", ctx),
                (r, f) => prop_assert!(false, "diverged on {}: reference {:?} vs solver {:?}", ctx, r, f),
            }
        }
    }

    #[test]
    fn reference_matches_wide_heap_path() {
        // Beyond five columns the same iteration runs on heap scratch.
        for seed in 1..200u64 {
            let (a, b) = planted_system(Shape::Random, 3 + (seed % 9) as usize, 7, 0, seed);
            let (r, f) = (
                reference_nnls_with(&a, &b, NnlsOptions::default()),
                nnls(&a, &b),
            );
            match (r, f) {
                (Ok(r), Ok(f)) => {
                    assert_eq!(r.x, f.x, "seed {seed}");
                    assert_eq!(r.residual_ss.to_bits(), f.residual_ss.to_bits());
                    assert_eq!(r.iterations, f.iterations);
                }
                (Err(re), Err(fe)) => assert_eq!(re, fe),
                (r, f) => panic!("diverged at seed {seed}: {r:?} vs {f:?}"),
            }
        }
    }

    #[test]
    fn unconstrained_optimum_inside_region() {
        // x = (1, 2) is non-negative, so NNLS must match plain LS.
        let a = mat(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let b = [1.0, 2.0, 3.0];
        let sol = nnls(&a, &b).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
        assert!((sol.x[1] - 2.0).abs() < 1e-9);
        assert!(sol.residual_ss < 1e-18);
    }

    #[test]
    fn clamps_negative_coordinate_to_zero() {
        // Plain LS would want a negative coefficient on col1.
        let a = mat(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 0.0]]);
        let b = [1.0, 1.0, 2.0];
        let sol = nnls(&a, &b).unwrap();
        assert!(sol.x.iter().all(|&v| v >= 0.0));
        // With x1 forced to 0, best x0 for rows (1,1,1) vs b (1,1,2) is 4/3.
        assert!((sol.x[0] - 4.0 / 3.0).abs() < 1e-9 || sol.x[1] > 0.0);
    }

    #[test]
    fn lawson_hanson_reference_problem() {
        // Classic example: A = [[1,0],[1,1],[0,1]], b = [2,1,1].
        // Unconstrained solution is (4/3, 1/3): feasible, so NNLS matches.
        let a = mat(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 1.0]]);
        let b = [2.0, 1.0, 1.0];
        let sol = nnls(&a, &b).unwrap();
        assert!((sol.x[0] - 4.0 / 3.0).abs() < 1e-9);
        assert!((sol.x[1] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn all_zero_solution_when_b_negative() {
        // b pulls in the negative direction only: x = 0 is optimal.
        let a = mat(&[&[1.0], &[1.0]]);
        let b = [-1.0, -2.0];
        let sol = nnls(&a, &b).unwrap();
        assert_eq!(sol.x, vec![0.0]);
        assert!((sol.residual_ss - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_finite() {
        let a = mat(&[&[1.0], &[1.0]]);
        assert!(matches!(
            nnls(&a, &[f64::NAN, 0.0]),
            Err(FitError::NonFiniteInput { .. })
        ));
        let bad = mat(&[&[f64::INFINITY], &[1.0]]);
        assert!(matches!(
            nnls(&bad, &[1.0, 1.0]),
            Err(FitError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = mat(&[&[1.0], &[1.0]]);
        assert!(matches!(
            nnls(&a, &[1.0]),
            Err(FitError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn recovers_sgd_style_curve_coefficients() {
        // The exact transformed loss-curve problem: 1/(l−β₂) = β₀k + β₁.
        let beta0 = 0.21;
        let beta1 = 1.07;
        let ks: Vec<f64> = (1..60).map(|k| k as f64).collect();
        let rows: Vec<Vec<f64>> = ks.iter().map(|&k| vec![k, 1.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&refs).unwrap();
        let b: Vec<f64> = ks.iter().map(|&k| beta0 * k + beta1).collect();
        let sol = nnls(&a, &b).unwrap();
        assert!((sol.x[0] - beta0).abs() < 1e-9);
        assert!((sol.x[1] - beta1).abs() < 1e-9);
    }

    #[test]
    fn wide_problem_with_redundant_columns() {
        // Duplicated columns: any convex split is optimal; solution must be
        // non-negative and reproduce b.
        let a = mat(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let b = [2.0, 2.0, 3.0];
        let sol = nnls(&a, &b).unwrap();
        assert!(sol.x.iter().all(|&v| v >= 0.0));
        assert!((sol.x[0] + sol.x[1] - 2.0).abs() < 1e-6);
        assert!((sol.x[2] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn iteration_counter_reported() {
        let a = mat(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let sol = nnls(&a, &[1.0, 1.0]).unwrap();
        assert!(sol.iterations >= 1);
    }

    /// Checks `nnls2` against the naive reference solver on the same system:
    /// bit-identical coefficients and residual, identical iteration
    /// count (the trial-solve dedup skips work, not counter bumps).
    fn assert_nnls2_matches(rows: &[[f64; 2]], b: &[f64]) {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let reference = Matrix::from_rows(&refs)
            .and_then(|a| reference_nnls_with(&a, b, NnlsOptions::default()));
        let fast = nnls2(rows, b, NnlsOptions::default());
        match (reference, fast) {
            (Ok(r), Ok(f)) => {
                assert_eq!(r.x[0].to_bits(), f.x[0].to_bits(), "x0 for {rows:?}");
                assert_eq!(r.x[1].to_bits(), f.x[1].to_bits(), "x1 for {rows:?}");
                assert_eq!(
                    r.residual_ss.to_bits(),
                    f.residual_ss.to_bits(),
                    "rss for {rows:?}"
                );
                assert_eq!(r.iterations, f.iterations, "iterations for {rows:?}");
            }
            (Err(re), Err(fe)) => assert_eq!(re, fe, "error kind for {rows:?}"),
            (r, f) => panic!("diverged on {rows:?}: reference {r:?} vs nnls2 {f:?}"),
        }
    }

    #[test]
    fn nnls2_matches_reference_on_interior_optimum() {
        assert_nnls2_matches(
            &[[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]],
            &[3.0, 5.0, 7.0], // x = (2, 1)
        );
    }

    #[test]
    fn nnls2_matches_reference_when_constraint_binds() {
        assert_nnls2_matches(
            &[[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]],
            &[5.0, 4.0, 3.0], // unconstrained slope is negative
        );
    }

    #[test]
    fn nnls2_matches_reference_on_loss_curve_shapes() {
        // The exact row shapes fit_for_beta2 produces: [w·k, w], y = gap.
        for &beta2 in &[0.0, 0.03, 0.0699] {
            let mut rows = Vec::new();
            let mut ys = Vec::new();
            for k in 0..80_u64 {
                let l = 1.0 / (0.21 * k as f64 + 1.07) + 0.07;
                let gap = l - beta2;
                if gap <= 1e-9 {
                    continue;
                }
                let w = gap * gap;
                rows.push([w * k as f64, w]);
                ys.push(gap);
            }
            assert_nnls2_matches(&rows, &ys);
        }
    }

    #[test]
    fn nnls2_matches_reference_on_degenerate_systems() {
        // Zero column (singular gram → ridge retry path).
        assert_nnls2_matches(&[[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]], &[1.0, 1.0, 1.0]);
        // All-zero matrix: no column ever enters.
        assert_nnls2_matches(&[[0.0, 0.0], [0.0, 0.0]], &[1.0, 2.0]);
        // Proportional columns.
        assert_nnls2_matches(&[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], &[1.0, 2.0, 3.0]);
        // Negative correlation with b: optimum at origin.
        assert_nnls2_matches(&[[1.0, 0.5], [2.0, 1.5]], &[-1.0, -2.0]);
        // Underdetermined (1 row, 2 cols may enter).
        assert_nnls2_matches(&[[1.0, 2.0]], &[3.0]);
    }

    #[test]
    fn nnls2_matches_reference_on_error_cases() {
        assert_nnls2_matches(&[[1.0, f64::NAN]], &[1.0]);
        assert_nnls2_matches(&[[1.0, 1.0]], &[f64::INFINITY]);
        let rows = [[1.0, 1.0], [2.0, 1.0]];
        let short_b = [1.0];
        assert!(matches!(
            nnls2(&rows, &short_b, NnlsOptions::default()),
            Err(FitError::DimensionMismatch { .. })
        ));
    }
}
