//! Sparse LU factorization of the simplex basis with a product-form eta file.
//!
//! The basis matrices arising from the modulo-scheduling formulations are
//! extremely sparse (the 0-1-structured rows of Ineq. 20 carry a handful of
//! ±1 entries each), so an explicit dense inverse wastes both the
//! factorization (O(m³)) and every FTRAN/BTRAN (O(m²)). This module stores
//! the basis as `P B Q = L U` with
//!
//! * `L` unit lower triangular, held column-wise in pivot coordinates,
//! * `U` upper triangular, held column-wise (off-diagonal) plus a diagonal,
//! * `P`/`Q` the row/column pivot orders chosen by Markowitz selection with
//!   threshold partial pivoting,
//!
//! which supports all four triangular solves (`L`, `Lᵀ`, `U`, `Uᵀ`) needed
//! by FTRAN (`B v = a`) and BTRAN (`Bᵀ y = c`) with a single dense scratch
//! vector. Between refactorizations, basis changes are absorbed as
//! product-form eta updates: after a pivot on basis position `r` with
//! transformed column `v = B⁻¹ a`, the new basis is `B' = B·E` where `E` is
//! the identity with column `r` replaced by `v`, so
//!
//! * FTRAN applies the etas **in order** after the base LU solve
//!   (`z_r ← z_r / v_r`, then `z_i ← z_i − v_i z_r`), and
//! * BTRAN applies the transposed etas **in reverse** before the base
//!   transpose solve (`y_r ← (y_r − Σ_{i≠r} v_i y_i) / v_r`).
//!
//! The eta file is bounded: [`SparseBasis::eta_nnz`] lets the caller force a
//! refactorization once the accumulated update entries outgrow the factor.
//!
//! The LU factor never changes between refactorizations, so [`SparseBasis`]
//! holds it behind an [`Arc`]: cloning a basis representation — which is how
//! a branch-and-bound parent hands its factorization to both children —
//! copies only the eta file and shares `L`/`U`.

use std::sync::Arc;

use crate::tol::{ELIM_SKIP_TOL, LU_DROP_TOL, LU_PIVOT_REL, SINGULAR_TOL};

/// A numerically singular basis was handed to [`LuFactor::factor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Singular;

/// Sparse LU factors of one basis matrix, `P B Q = L U`.
///
/// All internal row/column indices of `L` and `U` are *pivot coordinates*
/// (elimination order); `row_of`/`col_of` map them back to original
/// constraint rows and basis positions.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactor {
    m: usize,
    /// `row_of[k]` = original constraint row eliminated at step `k`.
    row_of: Vec<u32>,
    /// `col_of[k]` = basis position whose column was the pivot at step `k`.
    col_of: Vec<u32>,
    /// Unit-lower-triangular multipliers, column-wise: `l_cols[k]` holds
    /// `(i, L_ik)` with `i > k`.
    l_cols: Vec<Vec<(u32, f64)>>,
    /// Off-diagonal of `U`, column-wise: `u_cols[k]` holds `(i, U_ik)` with
    /// `i < k`.
    u_cols: Vec<Vec<(u32, f64)>>,
    u_diag: Vec<f64>,
}

impl LuFactor {
    /// Factor for a ±1-diagonal basis (the initial slack basis, possibly
    /// with signed artificial columns): `B = diag(signs)` in original
    /// coordinates, no fill, no permutation.
    pub(crate) fn diagonal(signs: &[f64]) -> Self {
        let m = signs.len();
        LuFactor {
            m,
            row_of: (0..m as u32).collect(),
            col_of: (0..m as u32).collect(),
            l_cols: vec![Vec::new(); m],
            u_cols: vec![Vec::new(); m],
            u_diag: signs.to_vec(),
        }
    }

    /// Dimension of the factored basis.
    pub(crate) fn dim(&self) -> usize {
        self.m
    }

    /// True while the factor is a pure diagonal (no elimination happened),
    /// which is when [`LuFactor::set_diag`] is legal.
    pub(crate) fn is_diagonal(&self) -> bool {
        self.l_cols.iter().all(Vec::is_empty)
            && self.u_cols.iter().all(Vec::is_empty)
            && self
                .row_of
                .iter()
                .enumerate()
                .all(|(k, &r)| r as usize == k)
            && self
                .col_of
                .iter()
                .enumerate()
                .all(|(k, &c)| c as usize == k)
    }

    /// Overwrites one diagonal entry of a diagonal factor (phase 1 installs
    /// signed artificial columns into the initial slack basis this way).
    pub(crate) fn set_diag(&mut self, i: usize, sign: f64) {
        debug_assert!(self.is_diagonal(), "set_diag on a factored basis");
        self.u_diag[i] = sign;
    }

    /// Factorizes an `m × m` basis given by a column oracle: `col(q, f)`
    /// must call `f(row, value)` for every nonzero of the basis column at
    /// position `q`. Markowitz pivot selection — minimize
    /// `(row_count − 1)(col_count − 1)` over entries passing the relative
    /// threshold `|a| ≥ LU_PIVOT_REL · max|column|` — with ties broken
    /// toward larger magnitude.
    #[allow(clippy::needless_range_loop)] // pivot steps index parallel arrays
    pub(crate) fn factor(
        m: usize,
        col: impl Fn(usize, &mut dyn FnMut(usize, f64)),
    ) -> Result<Self, Singular> {
        // Active-submatrix rows, sorted by column position. The invariant
        // maintained below: active rows only ever contain unpivoted columns,
        // so `rows[i].len()` is the live Markowitz row count.
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        for q in 0..m {
            col(q, &mut |i, a| {
                if a != 0.0 {
                    rows[i].push((q as u32, a));
                }
            });
        }
        for r in rows.iter_mut() {
            r.sort_unstable_by_key(|&(q, _)| q);
        }
        // Rows known to contain each column; entries can go stale after
        // elimination and are re-checked (lazy deletion).
        let mut col_rows: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (i, r) in rows.iter().enumerate() {
            for &(q, _) in r {
                col_rows[q as usize].push(i as u32);
            }
        }
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];
        let mut col_max = vec![0.0f64; m];
        let mut col_cnt = vec![0u32; m];

        let mut fac = LuFactor {
            m,
            row_of: Vec::with_capacity(m),
            col_of: Vec::with_capacity(m),
            l_cols: vec![Vec::new(); m],
            u_cols: vec![Vec::new(); m],
            u_diag: vec![0.0; m],
        };
        // L and U are recorded in original coordinates during elimination
        // and remapped to pivot coordinates once the full orders are known.
        let mut l_tmp: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        let mut u_rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); m];
        let mut spill: Vec<(u32, f64)> = Vec::new();

        for step in 0..m {
            // One sweep over the active submatrix recovers the exact column
            // maxima and counts (cheaper and safer than maintaining them
            // incrementally under drop tolerances).
            col_max.iter_mut().for_each(|x| *x = 0.0);
            col_cnt.iter_mut().for_each(|x| *x = 0);
            for (i, row) in rows.iter().enumerate() {
                if !row_active[i] {
                    continue;
                }
                for &(q, a) in row {
                    let q = q as usize;
                    col_cnt[q] += 1;
                    if a.abs() > col_max[q] {
                        col_max[q] = a.abs();
                    }
                }
            }
            // Markowitz selection over threshold-eligible entries.
            let mut best: Option<(usize, usize, f64, u64)> = None; // (row, col, val, score)
            for (i, row) in rows.iter().enumerate() {
                if !row_active[i] {
                    continue;
                }
                let rdeg = row.len() as u64;
                for &(q, a) in row {
                    let q = q as usize;
                    if a.abs() < SINGULAR_TOL || a.abs() < LU_PIVOT_REL * col_max[q] {
                        continue;
                    }
                    let score = (rdeg - 1) * (col_cnt[q] as u64 - 1);
                    let better = match best {
                        None => true,
                        Some((_, _, bv, bs)) => score < bs || (score == bs && a.abs() > bv.abs()),
                    };
                    if better {
                        best = Some((i, q, a, score));
                    }
                }
            }
            let Some((pr, pc, pv, _)) = best else {
                return Err(Singular);
            };
            fac.row_of.push(pr as u32);
            fac.col_of.push(pc as u32);
            fac.u_diag[step] = pv;
            row_active[pr] = false;
            col_active[pc] = false;

            // The pivot row (minus the pivot entry) becomes row `step` of U.
            let pivot_row = std::mem::take(&mut rows[pr]);
            u_rows[step] = pivot_row
                .iter()
                .filter(|&&(q, _)| q as usize != pc)
                .copied()
                .collect();

            // Eliminate the pivot column from every other active row.
            let candidates = std::mem::take(&mut col_rows[pc]);
            for &ri in &candidates {
                let ri = ri as usize;
                if !row_active[ri] {
                    continue;
                }
                let Ok(pos) = rows[ri].binary_search_by_key(&(pc as u32), |&(q, _)| q) else {
                    continue; // stale index entry
                };
                let mult = rows[ri][pos].1 / pv;
                l_tmp[step].push((ri as u32, mult));
                // rows[ri] ← rows[ri] − mult · pivot_row, merged by column.
                spill.clear();
                let old = &rows[ri];
                let mut a_it = old.iter().copied().peekable();
                let mut b_it = pivot_row.iter().copied().peekable();
                while a_it.peek().is_some() || b_it.peek().is_some() {
                    let take_a = match (a_it.peek(), b_it.peek()) {
                        (Some(&(qa, _)), Some(&(qb, _))) => {
                            if qa == qb {
                                let (q, av) = a_it.next().unwrap();
                                let (_, bv) = b_it.next().unwrap();
                                if q as usize != pc {
                                    let x = av - mult * bv;
                                    if x.abs() > LU_DROP_TOL {
                                        spill.push((q, x));
                                    }
                                }
                                continue;
                            }
                            qa < qb
                        }
                        (Some(_), None) => true,
                        (None, Some(_)) => false,
                        (None, None) => unreachable!(),
                    };
                    if take_a {
                        let (q, av) = a_it.next().unwrap();
                        if q as usize != pc {
                            spill.push((q, av));
                        }
                    } else {
                        let (q, bv) = b_it.next().unwrap();
                        if q as usize != pc {
                            let x = -mult * bv;
                            if x.abs() > LU_DROP_TOL {
                                // Fill-in: register the row under the new column.
                                col_rows[q as usize].push(ri as u32);
                                spill.push((q, x));
                            }
                        }
                    }
                }
                rows[ri].clear();
                rows[ri].extend_from_slice(&spill);
            }
        }
        debug_assert!(col_active.iter().all(|&a| !a));

        // Remap L and U from original coordinates into pivot coordinates.
        let mut pos_of_row = vec![0u32; m];
        let mut pos_of_col = vec![0u32; m];
        for k in 0..m {
            pos_of_row[fac.row_of[k] as usize] = k as u32;
            pos_of_col[fac.col_of[k] as usize] = k as u32;
        }
        for k in 0..m {
            let col: Vec<(u32, f64)> = l_tmp[k]
                .iter()
                .map(|&(ri, v)| (pos_of_row[ri as usize], v))
                .collect();
            debug_assert!(col.iter().all(|&(i, _)| i as usize > k));
            fac.l_cols[k] = col;
            // U row `k` scatters into the columns of its entries.
            for &(q, v) in &u_rows[k] {
                let qc = pos_of_col[q as usize] as usize;
                debug_assert!(qc > k);
                fac.u_cols[qc].push((k as u32, v));
            }
        }
        for c in fac.u_cols.iter_mut() {
            c.sort_unstable_by_key(|&(i, _)| i);
        }
        Ok(fac)
    }

    /// Solves `B x = rhs`. `rhs` is dense in original row coordinates and is
    /// consumed as scratch; the solution lands in `out`, indexed by **basis
    /// position**. `work` is an `m`-length scratch vector.
    pub(crate) fn ftran(&self, rhs: &[f64], work: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        // Permute into pivot coordinates: w = P·rhs.
        for k in 0..m {
            work[k] = rhs[self.row_of[k] as usize];
        }
        // Forward solve L z = w (column-oriented).
        for k in 0..m {
            let val = work[k];
            if val != 0.0 {
                for &(i, mult) in &self.l_cols[k] {
                    work[i as usize] -= mult * val;
                }
            }
        }
        // Back solve U x = z (column-oriented).
        for k in (0..m).rev() {
            let xk = work[k] / self.u_diag[k];
            work[k] = xk;
            if xk != 0.0 {
                for &(i, v) in &self.u_cols[k] {
                    work[i as usize] -= v * xk;
                }
            }
        }
        // Scatter back to basis positions: x = Q·w.
        for k in 0..m {
            out[self.col_of[k] as usize] = work[k];
        }
    }

    /// Solves `Bᵀ y = c`. `c` is dense, indexed by basis position; the
    /// solution lands in `out`, indexed by original constraint row. `work`
    /// is an `m`-length scratch vector.
    pub(crate) fn btran(&self, c: &[f64], work: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        // With M = L·U in pivot coordinates, Bᵀ y = c becomes Mᵀ yp = cp
        // where cp_q = c[col_of[q]] and yp_k = y[row_of[k]].
        // Forward solve Uᵀ w = cp (u_cols[q] is row q of Uᵀ).
        for q in 0..m {
            let mut s = c[self.col_of[q] as usize];
            for &(i, v) in &self.u_cols[q] {
                s -= v * work[i as usize];
            }
            work[q] = s / self.u_diag[q];
        }
        // Back solve Lᵀ yp = w (l_cols[k] is row k of Lᵀ, entries i > k).
        for k in (0..m).rev() {
            let mut s = work[k];
            for &(i, mult) in &self.l_cols[k] {
                s -= mult * work[i as usize];
            }
            work[k] = s;
        }
        for k in 0..m {
            out[self.row_of[k] as usize] = work[k];
        }
    }
}

/// One product-form update: basis position `r` was replaced by a column
/// whose transformed image was `v = B⁻¹ a`.
#[derive(Debug, Clone, Copy)]
struct Eta {
    r: u32,
    /// `1 / v_r`.
    inv_piv: f64,
    /// This eta's span of [`EtaFile::entries`].
    start: usize,
    end: usize,
}

/// Bounded product-form eta file layered on top of an [`LuFactor`].
///
/// The off-pivot entries of all etas sit back to back in one array, so a
/// clone is two flat copies however many etas are stacked.
#[derive(Debug, Clone, Default)]
pub(crate) struct EtaFile {
    etas: Vec<Eta>,
    /// `(i, v_i)` for `i ≠ r` with `|v_i|` above the skip tolerance, per
    /// eta in push order.
    entries: Vec<(u32, f64)>,
}

impl EtaFile {
    pub(crate) fn clear(&mut self) {
        self.etas.clear();
        self.entries.clear();
    }

    /// Number of eta updates currently stacked on the base factor.
    #[cfg_attr(not(test), allow(dead_code))] // exercised by the unit tests
    pub(crate) fn len(&self) -> usize {
        self.etas.len()
    }

    /// Total stored off-pivot entries across all etas — the FTRAN/BTRAN
    /// surcharge per solve, and the quantity the refactorization cadence
    /// bounds.
    pub(crate) fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Records the pivot `(r, v)`; `v` is the dense transformed column.
    pub(crate) fn push(&mut self, r: usize, v: &[f64]) {
        let start = self.entries.len();
        self.entries.extend(
            v.iter()
                .enumerate()
                .filter(|&(i, &x)| i != r && x.abs() > ELIM_SKIP_TOL)
                .map(|(i, &x)| (i as u32, x)),
        );
        self.etas.push(Eta {
            r: r as u32,
            inv_piv: 1.0 / v[r],
            start,
            end: self.entries.len(),
        });
    }

    /// Applies the eta inverses in chronological order (FTRAN tail):
    /// `z ← E_k⁻¹ ⋯ E_1⁻¹ z`, all in basis-position coordinates.
    pub(crate) fn ftran(&self, z: &mut [f64]) {
        for eta in &self.etas {
            let zr = z[eta.r as usize] * eta.inv_piv;
            z[eta.r as usize] = zr;
            if zr != 0.0 {
                for &(i, v) in &self.entries[eta.start..eta.end] {
                    z[i as usize] -= v * zr;
                }
            }
        }
    }

    /// Applies the transposed eta inverses in reverse order (BTRAN head):
    /// `y ← E_1⁻ᵀ ⋯ E_k⁻ᵀ y`, all in basis-position coordinates.
    pub(crate) fn btran(&self, y: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut s = y[eta.r as usize];
            for &(i, v) in &self.entries[eta.start..eta.end] {
                s -= v * y[i as usize];
            }
            y[eta.r as usize] = s * eta.inv_piv;
        }
    }
}

/// The complete sparse basis representation: base LU factor + eta file +
/// scratch storage, exposing exactly the operations the simplex loops need.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseBasis {
    m: usize,
    /// Shared by every clone until the next refactorization replaces it.
    lu: Arc<LuFactor>,
    etas: EtaFile,
    /// Pivot-coordinate scratch for the triangular solves.
    work: Vec<f64>,
    /// Original-row-coordinate scratch for gathers.
    rhs: Vec<f64>,
}

impl SparseBasis {
    /// Fresh identity basis of dimension `m` (the initial slack basis).
    pub(crate) fn identity(m: usize) -> Self {
        let ones = vec![1.0; m];
        SparseBasis {
            m,
            lu: Arc::new(LuFactor::diagonal(&ones)),
            etas: EtaFile::default(),
            work: vec![0.0; m],
            rhs: vec![0.0; m],
        }
    }

    /// Resets to the identity basis of dimension `m`, reusing the scratch
    /// allocations where possible.
    pub(crate) fn reset_identity(&mut self, m: usize) {
        let ones = vec![1.0; m];
        self.m = m;
        self.lu = Arc::new(LuFactor::diagonal(&ones));
        self.etas.clear();
        self.work.clear();
        self.work.resize(m, 0.0);
        self.rhs.clear();
        self.rhs.resize(m, 0.0);
    }

    /// Phase-1 hook: replace the `i`-th diagonal of the (still diagonal)
    /// factor with the sign of an installed artificial column.
    pub(crate) fn set_diag_sign(&mut self, i: usize, sign: f64) {
        Arc::make_mut(&mut self.lu).set_diag(i, sign);
    }

    /// The factor and eta file that represent the current basis, for
    /// [`SparseBasis::install`] elsewhere: `L`/`U` are shared, the etas
    /// copied.
    pub(crate) fn factor_state(&self) -> (Arc<LuFactor>, EtaFile) {
        (Arc::clone(&self.lu), self.etas.clone())
    }

    /// Adopts a factor and eta file captured by
    /// [`SparseBasis::factor_state`] in place of a refactorization.
    pub(crate) fn install(&mut self, lu: &Arc<LuFactor>, etas: &EtaFile) {
        let m = lu.dim();
        self.m = m;
        self.lu = Arc::clone(lu);
        self.etas.clone_from(etas);
        self.work.resize(m, 0.0);
        self.rhs.resize(m, 0.0);
    }

    #[cfg_attr(not(test), allow(dead_code))] // exercised by the unit tests
    pub(crate) fn eta_count(&self) -> usize {
        self.etas.len()
    }

    pub(crate) fn eta_nnz(&self) -> usize {
        self.etas.nnz()
    }

    /// FTRAN of a sparse column: `out = B⁻¹ a` (basis-position coords).
    pub(crate) fn ftran_col(&mut self, entries: &[(u32, f64)], out: &mut [f64]) {
        self.rhs.iter_mut().for_each(|x| *x = 0.0);
        for &(i, a) in entries {
            self.rhs[i as usize] += a;
        }
        self.lu.ftran(&self.rhs, &mut self.work, out);
        self.etas.ftran(out);
    }

    /// FTRAN of a dense right-hand side in original row coordinates.
    pub(crate) fn ftran_rhs(&mut self, rhs: &[f64], out: &mut [f64]) {
        self.lu.ftran(rhs, &mut self.work, out);
        self.etas.ftran(out);
    }

    /// BTRAN: `out = B⁻ᵀ c` where `c` is indexed by basis position (consumed
    /// as scratch) and `out` by original constraint row.
    pub(crate) fn btran(&mut self, c: &mut [f64], out: &mut [f64]) {
        self.etas.btran(c);
        self.lu.btran(c, &mut self.work, out);
    }

    /// Absorbs a pivot at basis position `r` with transformed column `v` as
    /// an eta update.
    pub(crate) fn push_eta(&mut self, r: usize, v: &[f64]) {
        self.etas.push(r, v);
    }

    /// Refactorizes from the column oracle. On success the eta file is
    /// cleared; on a singular basis the previous factor (including etas) is
    /// kept so the caller can continue exactly like the dense path does when
    /// its Gauss-Jordan rebuild bails.
    pub(crate) fn refactor(
        &mut self,
        m: usize,
        col: impl Fn(usize, &mut dyn FnMut(usize, f64)),
    ) -> bool {
        match LuFactor::factor(m, col) {
            Ok(lu) => {
                self.m = m;
                self.lu = Arc::new(lu);
                self.etas.clear();
                self.work.resize(m, 0.0);
                self.rhs.resize(m, 0.0);
                true
            }
            Err(Singular) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference: `cols[q]` is the dense basis column at position `q`.
    fn dense_cols(cols: &[Vec<f64>]) -> impl Fn(usize, &mut dyn FnMut(usize, f64)) + '_ {
        move |q, f| {
            for (i, &a) in cols[q].iter().enumerate() {
                if a != 0.0 {
                    f(i, a);
                }
            }
        }
    }

    fn mat_vec(cols: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = cols.len();
        let mut out = vec![0.0; m];
        for (q, col) in cols.iter().enumerate() {
            for (i, &a) in col.iter().enumerate() {
                out[i] += a * x[q];
            }
        }
        out
    }

    fn mat_t_vec(cols: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        cols.iter()
            .map(|col| col.iter().zip(y).map(|(a, b)| a * b).sum())
            .collect()
    }

    fn check_solves(cols: &[Vec<f64>]) {
        let m = cols.len();
        let fac = LuFactor::factor(m, dense_cols(cols)).expect("nonsingular");
        let mut work = vec![0.0; m];
        let mut out = vec![0.0; m];
        // FTRAN: B x = e_i for each i.
        for i in 0..m {
            let mut rhs = vec![0.0; m];
            rhs[i] = 1.0;
            fac.ftran(&rhs, &mut work, &mut out);
            let back = mat_vec(cols, &out);
            for (k, &b) in back.iter().enumerate() {
                let want = if k == i { 1.0 } else { 0.0 };
                assert!((b - want).abs() < 1e-9, "ftran col {i} row {k}: {b}");
            }
        }
        // BTRAN: Bᵀ y = e_q for each q.
        for q in 0..m {
            let mut c = vec![0.0; m];
            c[q] = 1.0;
            fac.btran(&c, &mut work, &mut out);
            let back = mat_t_vec(cols, &out);
            for (k, &b) in back.iter().enumerate() {
                let want = if k == q { 1.0 } else { 0.0 };
                assert!((b - want).abs() < 1e-9, "btran col {q} pos {k}: {b}");
            }
        }
    }

    #[test]
    fn factors_identity() {
        let cols = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        check_solves(&cols);
    }

    #[test]
    fn factors_permuted_signed_diagonal() {
        let cols = vec![
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 2.0],
            vec![1.0, 0.0, 0.0],
        ];
        check_solves(&cols);
    }

    #[test]
    fn factors_dense_3x3() {
        let cols = vec![
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ];
        check_solves(&cols);
    }

    #[test]
    fn factors_zero_one_structured() {
        // The shape the structured formulation produces: 0-1 rows with a
        // handful of entries, including duplicated-pattern columns that
        // force genuine elimination.
        let cols = vec![
            vec![1.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0, 1.0],
        ];
        // This circulant is nonsingular for odd m.
        check_solves(&cols);
    }

    #[test]
    fn rejects_singular_matrix() {
        let cols = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(LuFactor::factor(2, dense_cols(&cols)).is_err());
    }

    #[test]
    fn rejects_zero_column() {
        let cols = vec![vec![1.0, 0.0], vec![0.0, 0.0]];
        assert!(LuFactor::factor(2, dense_cols(&cols)).is_err());
    }

    #[test]
    fn eta_updates_track_basis_change() {
        // Start from B0 = I, replace column 1 with a = (1, 2, 1)ᵀ, then
        // column 0 with a' = (3, 0, 1)ᵀ; compare eta-updated solves against
        // a direct factorization of the final basis.
        let m = 3;
        let mut sb = SparseBasis::identity(m);
        let a1 = [(0u32, 1.0), (1u32, 2.0), (2u32, 1.0)];
        let mut v = vec![0.0; m];
        sb.ftran_col(&a1, &mut v);
        sb.push_eta(1, &v);
        let a0 = [(0u32, 3.0), (2u32, 1.0)];
        sb.ftran_col(&a0, &mut v);
        sb.push_eta(0, &v);

        let final_cols = vec![
            vec![3.0, 0.0, 1.0],
            vec![1.0, 2.0, 1.0],
            vec![0.0, 0.0, 1.0],
        ];
        let direct = LuFactor::factor(m, dense_cols(&final_cols)).unwrap();
        let mut work = vec![0.0; m];
        let mut want = vec![0.0; m];
        let mut got = vec![0.0; m];
        for i in 0..m {
            let mut rhs = vec![0.0; m];
            rhs[i] = 1.0;
            direct.ftran(&rhs, &mut work, &mut want);
            sb.ftran_rhs(&rhs, &mut got);
            for k in 0..m {
                assert!((got[k] - want[k]).abs() < 1e-10, "ftran {i}/{k}");
            }
        }
        for q in 0..m {
            let mut c = vec![0.0; m];
            c[q] = 1.0;
            direct.btran(&c, &mut work, &mut want);
            let mut c2 = vec![0.0; m];
            c2[q] = 1.0;
            sb.btran(&mut c2, &mut got);
            for k in 0..m {
                assert!((got[k] - want[k]).abs() < 1e-10, "btran {q}/{k}");
            }
        }
        assert_eq!(sb.eta_count(), 2);
        assert!(sb.eta_nnz() > 0);
    }

    #[test]
    fn refactor_clears_eta_file_and_keeps_old_factor_on_singular() {
        let m = 2;
        let mut sb = SparseBasis::identity(m);
        let a = [(0u32, 2.0), (1u32, 1.0)];
        let mut v = vec![0.0; m];
        sb.ftran_col(&a, &mut v);
        sb.push_eta(0, &v);
        assert_eq!(sb.eta_count(), 1);

        // Singular refactor target: factor must refuse and keep the etas.
        let singular = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(!sb.refactor(m, dense_cols(&singular)));
        assert_eq!(sb.eta_count(), 1);

        // A good refactor clears them.
        let good = vec![vec![2.0, 1.0], vec![0.0, 1.0]];
        assert!(sb.refactor(m, dense_cols(&good)));
        assert_eq!(sb.eta_count(), 0);
        assert_eq!(sb.eta_nnz(), 0);
    }

    #[test]
    fn markowitz_keeps_arrow_matrix_sparse() {
        // Arrow matrix: dense first row and column + diagonal. Eliminating
        // the dense corner first would fill the whole matrix; Markowitz
        // must pick diagonal pivots and keep L/U linear-sized.
        let m = 20;
        let mut cols = vec![vec![0.0; m]; m];
        for (q, col) in cols.iter_mut().enumerate() {
            col[q] = 4.0;
            col[0] = 1.0;
        }
        for v in cols[0].iter_mut() {
            *v = 1.0;
        }
        cols[0][0] = 4.0;
        let fac = LuFactor::factor(m, dense_cols(&cols)).expect("nonsingular");
        let l_nnz: usize = fac.l_cols.iter().map(Vec::len).sum();
        let u_nnz: usize = fac.u_cols.iter().map(Vec::len).sum();
        // A fill-free arrow factorization has m−1 entries in each factor.
        assert!(
            l_nnz <= 2 * m && u_nnz <= 2 * m,
            "fill-in exploded: L {l_nnz}, U {u_nnz}"
        );
        check_solves(&cols);
    }
}
