//! Sparse matrices: triplet assembly, CSR storage, and a Gilbert–Peierls
//! left-looking sparse LU on an approximate minimum degree column order
//! with diagonal-preferring threshold pivoting and a symmetrically pruned
//! reachability search, whose analysis refactors matrices of the same
//! pattern.
//!
//! The differential-equation formulations surveyed in Section 4 of the paper
//! (and the circuit MNA systems of Section 2) "generate sparse matrices with
//! near diagonal or block-diagonal structure". This module provides the
//! storage and direct factorization those engines use; the companion
//! [`krylov`](crate::krylov) module provides the iterative alternatives.

use crate::scalar::Scalar;
use crate::{Error, Result};
use std::sync::Arc;

/// Triplet (COO) matrix builder. Duplicate entries are summed on conversion,
/// matching the accumulate-by-stamping style of MNA assembly.
///
/// ```
/// use rfsim_numerics::sparse::Triplets;
///
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // accumulates
/// t.push(1, 1, 5.0);
/// let a = t.to_csr();
/// assert_eq!(a.get(0, 0), 3.0);
/// assert_eq!(a.nnz(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Triplets<T = f64> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> Triplets<T> {
    /// Creates an empty builder for an `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Triplets { rows, cols, entries: Vec::new() }
    }

    /// Adds `v` at `(i, j)`. Duplicates accumulate.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    pub fn push(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "triplet index out of bounds");
        self.entries.push((i, j, v));
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Raw `(row, col, value)` entries as pushed (duplicates not merged).
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Converts to CSR, summing duplicates in push order and dropping
    /// exact zeros: [`Triplets::to_pattern`] without its structural zeros.
    pub fn to_csr(&self) -> Csr<T> {
        let mut a = self.to_pattern();
        let mut kept = 0;
        for i in 0..a.rows {
            let row = a.row_ptr[i]..a.row_ptr[i + 1];
            a.row_ptr[i] = kept;
            for k in row {
                if a.vals[k] != T::ZERO {
                    a.col_idx[kept] = a.col_idx[k];
                    a.vals[kept] = a.vals[k];
                    kept += 1;
                }
            }
        }
        a.row_ptr[a.rows] = kept;
        a.col_idx.truncate(kept);
        a.vals.truncate(kept);
        a
    }

    /// Drops every entry, keeping the allocation, and resets the shape —
    /// the reuse form of [`Triplets::new`] for stamping loops that
    /// rebuild the same matrix every iteration.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.entries.clear();
        self.rows = rows;
        self.cols = cols;
    }

    /// Converts to CSR like [`Triplets::to_csr`] but keeps every stamped
    /// position: exact-zero sums stay as explicit entries, and duplicates
    /// sum in push order.
    ///
    /// This is the pattern for assembly loops whose sparsity is
    /// iteration-invariant: keeping structural zeros makes it valid for
    /// every restamp, not just the one that built it.
    pub fn to_pattern(&self) -> Csr<T> {
        let mut counts = vec![0usize; self.rows + 1];
        for &(i, _, _) in &self.entries {
            counts[i + 1] += 1;
        }
        for i in 0..self.rows {
            counts[i + 1] += counts[i];
        }
        // Bucket raw-entry ids by row, preserving push order within a row.
        let mut ids = vec![0usize; self.entries.len()];
        let mut next = counts.clone();
        for (k, &(i, _, _)) in self.entries.iter().enumerate() {
            ids[next[i]] = k;
            next[i] += 1;
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut out_cols = Vec::with_capacity(self.entries.len());
        let mut out_vals = Vec::with_capacity(self.entries.len());
        let mut row: Vec<(usize, usize)> = Vec::new();
        for i in 0..self.rows {
            row.clear();
            row.extend(ids[counts[i]..counts[i + 1]].iter().map(|&k| (self.entries[k].1, k)));
            row.sort_by_key(|&(c, _)| c);
            let mut idx = 0;
            while idx < row.len() {
                let c = row[idx].0;
                out_cols.push(c);
                let mut v = T::ZERO;
                while idx < row.len() && row[idx].0 == c {
                    v += self.entries[row[idx].1].2;
                    idx += 1;
                }
                out_vals.push(v);
            }
            row_ptr[i + 1] = out_cols.len();
        }
        Csr { rows: self.rows, cols: self.cols, row_ptr, col_idx: out_cols, vals: out_vals }
    }
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T = f64> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, T::ONE);
        }
        t.to_csr()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mutable view of the stored values in row-major slot order, for
    /// restamping a [`Triplets::to_pattern`] pattern.
    pub fn vals_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The slot of position `(i, j)` in the stored values, if the
    /// pattern holds it.
    #[inline]
    fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.row_ptr[i];
        self.col_idx[lo..self.row_ptr[i + 1]].binary_search(&j).ok().map(|k| lo + k)
    }

    /// Sums the stamps `t` into `vals`, zeroed first, each at the slot of
    /// its own `(i, j)`, duplicates in push order (the sums of
    /// [`Triplets::to_pattern`]). Stamps of the same positions pushed in
    /// another order (a MOSFET whose drain and source swap roles) land
    /// every value where it belongs. Returns `false` when some position
    /// has no slot.
    #[inline]
    pub fn scatter(&self, t: &Triplets<T>, vals: &mut [T]) -> bool {
        vals.fill(T::ZERO);
        t.entries.iter().all(|&(i, j, v)| self.slot(i, j).map(|slot| vals[slot] += v).is_some())
    }

    /// [`Csr::scatter`] into this matrix's own values.
    pub fn restamp(&mut self, t: &Triplets<T>) -> bool {
        let mut vals = std::mem::take(&mut self.vals);
        let fits = self.scatter(t, &mut vals);
        self.vals = vals;
        fits
    }

    /// This matrix with every position of `t` added to its pattern, an
    /// explicit zero where it stored nothing.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn grown(&self, t: &Triplets<T>) -> Csr<T> {
        assert_eq!((self.rows, self.cols), (t.rows, t.cols), "grown: shape mismatch");
        let mut u = Triplets::new(self.rows, self.cols);
        u.entries.extend(self.iter());
        u.entries.extend(t.entries.iter().map(|&(i, j, _)| (i, j, T::ZERO)));
        u.to_pattern()
    }

    /// Heap bytes held, by capacity.
    pub fn bytes(&self) -> usize {
        (self.row_ptr.capacity() + self.col_idx.capacity()) * std::mem::size_of::<usize>()
            + self.vals.capacity() * std::mem::size_of::<T>()
    }

    /// Fill density `nnz / (rows·cols)`, the quantity contrasted in the
    /// paper's Table 1 between differential (sparse) and integral (dense)
    /// formulations.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Value at `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> T {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.vals[lo + k],
            Err(_) => T::ZERO,
        }
    }

    /// Row `i`'s stored column indices (ascending) and values.
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.vals[span])
    }

    /// Iterates over `(row, col, value)` of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |i| {
            (self.row_ptr[i]..self.row_ptr[i + 1]).map(move |k| (i, self.col_idx[k], self.vals[k]))
        })
    }

    /// Sparse matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::ZERO; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Product `A·x` into a caller-provided buffer — the allocation-free
    /// form of [`Csr::matvec`] for hot loops that reuse `y`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        assert_eq!(y.len(), self.rows, "matvec_into: output length mismatch");
        self.matvec_with(&self.vals, x, y);
    }

    /// `y ← A·x` for the matrix with the values `vals` on this one's
    /// pattern: one [`Triplets::to_pattern`] pattern serves many value
    /// sets (see [`Csr::scatter`]).
    #[inline]
    pub fn matvec_with(&self, vals: &[T], x: &[T], y: &mut [T]) {
        // Iterator form lets the row slices elide the per-element bounds
        // checks on `vals`/`col_idx`; the accumulation order (ascending k)
        // is unchanged, so results stay bitwise identical.
        for (yi, w) in y.iter_mut().zip(self.row_ptr.windows(2)) {
            let (lo, hi) = (w[0], w[1]);
            let mut acc = T::ZERO;
            for (v, &c) in vals[lo..hi].iter().zip(&self.col_idx[lo..hi]) {
                acc += *v * x[c];
            }
            *yi = acc;
        }
    }

    /// Transposed product `Aᵀ·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.rows, "matvec_transposed: length mismatch");
        let mut y = vec![T::ZERO; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == T::ZERO {
                continue;
            }
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                y[self.col_idx[k]] += self.vals[k] * xi;
            }
        }
        y
    }

    /// Transpose as a new CSR matrix, keeping every stored entry.
    pub fn transpose(&self) -> Csr<T> {
        let (row_ptr, col_idx, pos) = self.columns();
        let vals = pos.iter().map(|&k| self.vals[k]).collect();
        Csr { rows: self.cols, cols: self.rows, row_ptr, col_idx, vals }
    }

    /// The pattern by columns, `(ptr, rows, pos)`: column `j`'s entries
    /// are `ptr[j]..ptr[j + 1]`, each with its row in `rows` (ascending)
    /// and the index of its value in the row-wise storage in `pos`.
    fn columns(&self) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        // Counting sort by column: `ptr[c + 1]` first counts column `c`,
        // then holds its start as the scatter cursor, and ends at its
        // end. Rows are visited in order, so each column is sorted.
        let mut ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            ptr[c + 1] += 1;
        }
        let mut start = 0;
        for slot in &mut ptr[1..] {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut rows = vec![0usize; self.nnz()];
        let mut pos = vec![0usize; self.nnz()];
        for (i, w) in self.row_ptr.windows(2).enumerate() {
            for k in w[0]..w[1] {
                let slot = &mut ptr[self.col_idx[k] + 1];
                rows[*slot] = i;
                pos[*slot] = k;
                *slot += 1;
            }
        }
        (ptr, rows, pos)
    }

    /// Returns `alpha·A + beta·B` (shapes must match).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_scaled(&self, alpha: f64, other: &Csr<T>, beta: f64) -> Csr<T> {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add_scaled: shape mismatch");
        let mut t = Triplets::new(self.rows, self.cols);
        for (i, j, v) in self.iter() {
            t.push(i, j, v.scale_by(alpha));
        }
        for (i, j, v) in other.iter() {
            t.push(i, j, v.scale_by(beta));
        }
        t.to_csr()
    }

    /// Dense conversion (for tests and small-problem fallbacks).
    pub fn to_dense(&self) -> crate::dense::Mat<T> {
        let mut m = crate::dense::Mat::zeros(self.rows, self.cols);
        for (i, j, v) in self.iter() {
            m[(i, j)] = v;
        }
        m
    }

    /// Extracts the diagonal.
    pub fn diagonal(&self) -> Vec<T> {
        (0..self.rows.min(self.cols)).map(|i| self.get(i, i)).collect()
    }

    /// Sparse LU factorization (Gilbert–Peierls on an approximate
    /// minimum degree column order, diagonal-preferring threshold
    /// pivoting); see [`SparseLu`], and [`SparseLu::refactor`] for
    /// matrices that share this one's pattern.
    ///
    /// # Errors
    /// Returns [`Error::Singular`] if no acceptable pivot exists in some
    /// column and [`Error::InvalidArgument`] for non-square matrices.
    pub fn lu(&self) -> Result<SparseLu<T>> {
        SparseLu::new(self)
    }

    /// Solves `A·x = b` through a fresh sparse LU.
    ///
    /// # Errors
    /// Propagates factorization errors; see [`Csr::lu`].
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        self.lu()?.solve(b)
    }
}

/// Sparse LU factors from the Gilbert–Peierls algorithm: `P·A·Q = L·U`
/// with unit-diagonal `L`, both stored column-wise.
///
/// `Q` is an approximate minimum degree order of `A + Aᵀ`, so the
/// factors of the sparse, near-diagonal matrices of the differential
/// formulations (Table 1) fill far less than in natural order. `P` is
/// chosen column by column: the permuted diagonal when its modulus is
/// at least 0.1× the largest candidate's (keeping the structure the
/// order was computed for), otherwise the largest. Each column's
/// reachability search walks symmetrically pruned columns of `L`
/// (Eisenstat & Liu, SIAM J. Matrix Anal. Appl. 1992), so it visits far
/// fewer edges than the numeric phase does multiply-adds.
///
/// A factorization is an *analysis* — `Q`, `P` and the patterns of `A`,
/// `L` and `U`, held behind an [`Arc`] — plus the values. `L` and `U`
/// keep every position the search reached, exact zeros included, so the
/// analysis depends on `A`'s pattern and the pivot sequence only, and
/// [`SparseLu::refactor`] factors another matrix of the same pattern on
/// it, computing only the values (KLU's numeric refactorization; Davis &
/// Palamadai Natarajan, ACM TOMS 2010). One factorization serves both
/// [`SparseLu::solve`] and [`SparseLu::solve_transposed`].
#[derive(Debug, Clone)]
pub struct SparseLu<T> {
    analysis: Arc<Analysis>,
    l_vals: Vec<T>,
    u_vals: Vec<T>,
    u_diag: Vec<T>,
}

/// The value-independent part of a [`SparseLu`]. Solves and
/// refactorizations keep entry `k` of a pivoted vector at position
/// `q[k]`: the pivot of step `k` sits at `q[k]` and original row `r` at
/// `slot[r]`, so a solve ends with `x` in place. The row indices of `L`
/// and `U` are such positions.
#[derive(Debug)]
struct Analysis {
    /// `q[k]`: the column factored at step `k`; `qinv` its inverse.
    q: Vec<usize>,
    qinv: Vec<usize>,
    /// `slot[r] = q[pinv[r]]`: the position of original row `r`.
    slot: Vec<usize>,
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    /// `A`'s pattern by columns (see [`Csr::columns`]), which a
    /// refactored matrix must match.
    a_colptr: Vec<usize>,
    a_rows: Vec<usize>,
    a_pos: Vec<usize>,
}

const UNSET: usize = usize::MAX;

/// A diagonal entry is taken as the pivot when its modulus is at least
/// this fraction of the largest candidate's in its column (KLU's
/// default; Davis & Palamadai Natarajan, ACM TOMS 2010).
const DIAG_PIVOT_TOL: f64 = 0.1;

impl<T: Scalar> SparseLu<T> {
    /// Factors a square CSR matrix.
    ///
    /// # Errors
    /// Returns [`Error::Singular`] with the original column index on
    /// pivot breakdown, [`Error::InvalidArgument`] if not square.
    pub fn new(a: &Csr<T>) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(Error::InvalidArgument("sparse lu: matrix must be square"));
        }
        rfsim_telemetry::counter_add("lu.sparse.factorizations", 1);
        let n = a.rows();
        let (a_colptr, a_rows, a_pos) = a.columns();
        let q = amd_order(&a.row_ptr, &a.col_idx, &a_colptr, &a_rows);
        let nnz = a.nnz();
        let (mut l_colptr, mut u_colptr) = (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1));
        let (mut l_rows, mut u_rows) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        let (mut l_vals, mut u_vals) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        let mut u_diag = vec![T::ZERO; n];
        // `pinv[orig_row] = pivoted position`.
        let mut pinv = vec![UNSET; n];
        l_colptr.push(0);
        u_colptr.push(0);
        // Work arrays.
        let mut x = vec![T::ZERO; n]; // numeric values by original row index
        let mut pattern: Vec<usize> = Vec::with_capacity(n); // topo order (orig rows)

        // `mark[row] == k` once column k's DFS has reached `row`, so no
        // pass clears the marks; `lpend[col]` ends the part of L(:, col)
        // a DFS walks (`UNSET` until the column is pruned).
        let mut work = vec![UNSET; 2 * n];
        let (mark, lpend) = work.split_at_mut(n);
        // DFS stack: (node, next and end position in its L column).
        let mut stack: Vec<(usize, usize, usize)> = Vec::with_capacity(n);

        for k in 0..n {
            let j = q[k];
            let acol = a_colptr[j]..a_colptr[j + 1];
            // --- Symbolic: reachability DFS from the pattern of A(:,j). ---
            // A non-pivotal row has no out-edges: it is finished when
            // first reached.
            pattern.clear();
            for &root in &a_rows[acol.clone()] {
                if mark[root] == k {
                    continue;
                }
                mark[root] = k;
                let pj = pinv[root];
                if pj == UNSET {
                    pattern.push(root);
                    continue;
                }
                stack.push((root, l_colptr[pj], lpend[pj].min(l_colptr[pj + 1])));
                while let Some(&mut (node, ref mut pos, end)) = stack.last_mut() {
                    let mut descend = UNSET;
                    while *pos < end {
                        let next = l_rows[*pos];
                        *pos += 1;
                        if mark[next] != k {
                            mark[next] = k;
                            if pinv[next] == UNSET {
                                pattern.push(next);
                            } else {
                                descend = next;
                                break;
                            }
                        }
                    }
                    if descend == UNSET {
                        pattern.push(node);
                        stack.pop();
                    } else {
                        let pj = pinv[descend];
                        stack.push((descend, l_colptr[pj], lpend[pj].min(l_colptr[pj + 1])));
                    }
                }
            }
            // pattern is in reverse topological order; reverse for the solve.
            pattern.reverse();
            // --- Numeric: scatter A(:,j), then eliminate in topo order. ---
            for (&r, &p) in a_rows[acol.clone()].iter().zip(&a_pos[acol]) {
                x[r] = a.vals[p];
            }
            for &node in &pattern {
                let pj = pinv[node];
                if pj == UNSET {
                    continue;
                }
                let xv = x[node];
                if xv == T::ZERO {
                    continue;
                }
                let col = l_colptr[pj]..l_colptr[pj + 1];
                for (&r, &l) in l_rows[col.clone()].iter().zip(&l_vals[col]) {
                    x[r] -= l * xv;
                }
            }
            // --- Pivot: the diagonal (row j) unless it is too small next
            // to the largest modulus among not-yet-pivotal rows. `x` is
            // zero off the pattern, so an absent diagonal never qualifies.
            let mut ipiv = UNSET;
            let mut pmax = 0.0f64;
            for &node in &pattern {
                if pinv[node] == UNSET {
                    let m = x[node].modulus();
                    if m > pmax {
                        pmax = m;
                        ipiv = node;
                    }
                }
            }
            if ipiv == UNSET || pmax == 0.0 {
                return Err(Error::Singular(j));
            }
            if pinv[j] == UNSET && x[j].modulus() >= DIAG_PIVOT_TOL * pmax {
                ipiv = j;
            }
            let pivot = x[ipiv];
            pinv[ipiv] = k;
            u_diag[k] = pivot;
            // --- Store U(:, k): pivotal rows; L(:, k): the rest, scaled.
            // Both keep exact zeros. Pruning below relies on L(:, k)
            // holding every row its pattern reached, and a
            // refactorization on U holding every position another
            // matrix's values may fill.
            for &node in &pattern {
                let pj = pinv[node];
                let xv = x[node];
                x[node] = T::ZERO;
                if node == ipiv {
                    continue;
                }
                if pj != UNSET && pj < k {
                    u_rows.push(pj);
                    u_vals.push(xv);
                } else {
                    l_rows.push(node); // original index; a position below
                    l_vals.push(xv / pivot);
                }
            }
            u_colptr.push(u_rows.len());
            l_colptr.push(l_rows.len());
            // --- Symmetric pruning (Eisenstat & Liu 1992): when U(i, k) is
            // stored and L(:, i) holds this column's pivot row, every row
            // of L(:, i) that is not yet pivotal also lies in L(:, k),
            // which later searches reach through that pivot row. Move the
            // pivotal rows of L(:, i) to its front and end its DFS there.
            for p in u_colptr[k]..u_colptr[k + 1] {
                let i = u_rows[p];
                let (lo, hi) = (l_colptr[i], l_colptr[i + 1]);
                if lpend[i] != UNSET || !l_rows[lo..hi].contains(&ipiv) {
                    continue;
                }
                let (mut head, mut tail) = (lo, hi);
                while head < tail {
                    if pinv[l_rows[head]] == UNSET {
                        tail -= 1;
                        l_rows.swap(head, tail);
                        l_vals.swap(head, tail);
                    } else {
                        head += 1;
                    }
                }
                lpend[i] = tail;
            }
        }
        // Row indices become positions: original row r of L is kept at
        // q[pinv[r]], pivot step i of U at q[i].
        let mut slot = pinv;
        for p in &mut slot {
            *p = q[*p];
        }
        for r in &mut l_rows {
            *r = slot[*r];
        }
        for i in &mut u_rows {
            *i = q[*i];
        }
        let mut qinv = vec![0; n];
        for (k, &j) in q.iter().enumerate() {
            qinv[j] = k;
        }
        let analysis =
            Analysis { q, qinv, slot, l_colptr, l_rows, u_colptr, u_rows, a_colptr, a_rows, a_pos };
        let lu = SparseLu { analysis: Arc::new(analysis), l_vals, u_vals, u_diag };
        rfsim_telemetry::counter_add("lu.sparse.fill_nnz", lu.factor_nnz() as u64);
        Ok(lu)
    }

    /// Factors `a`, which must have the pattern of the matrix this
    /// factorization was made from, on the same analysis: the column
    /// order, pivot sequence and patterns of `L` and `U` are reused and
    /// only the values computed, with no search and no ordering. A pivot
    /// below 0.1× the largest candidate in its column (the bound
    /// [`SparseLu::new`] pivots by) gives `a` a fresh [`SparseLu::new`]
    /// instead, with an analysis of its own.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] if `a`'s pattern differs, and those of
    /// [`SparseLu::new`] when a pivot fails.
    pub fn refactor(&self, a: &Csr<T>) -> Result<Self> {
        if !self.has_pattern_of(a) {
            return Err(Error::InvalidArgument(
                "sparse refactor: pattern differs from the analysis",
            ));
        }
        let s = &*self.analysis;
        let n = s.q.len();
        let mut l_vals = vec![T::ZERO; s.l_rows.len()];
        let mut u_vals = vec![T::ZERO; s.u_rows.len()];
        let mut u_diag = vec![T::ZERO; n];
        let mut x = vec![T::ZERO; n];
        for (k, &j) in s.q.iter().enumerate() {
            let acol = s.a_colptr[j]..s.a_colptr[j + 1];
            for (&r, &p) in s.a_rows[acol.clone()].iter().zip(&s.a_pos[acol]) {
                x[s.slot[r]] = a.vals[p];
            }
            // U(:, k) is stored in the topological order of its search.
            for p in s.u_colptr[k]..s.u_colptr[k + 1] {
                let i = s.u_rows[p];
                let xv = std::mem::replace(&mut x[i], T::ZERO);
                u_vals[p] = xv;
                if xv == T::ZERO {
                    continue;
                }
                let col = s.l_colptr[s.qinv[i]]..s.l_colptr[s.qinv[i] + 1];
                for (&r, &l) in s.l_rows[col.clone()].iter().zip(&l_vals[col]) {
                    x[r] -= l * xv;
                }
            }
            let pivot = std::mem::replace(&mut x[j], T::ZERO);
            let col = s.l_colptr[k]..s.l_colptr[k + 1];
            let pmax =
                s.l_rows[col.clone()].iter().fold(pivot.modulus(), |m, &r| m.max(x[r].modulus()));
            let accepted = pmax > 0.0 && pivot.modulus() >= DIAG_PIVOT_TOL * pmax;
            if !accepted {
                return SparseLu::new(a);
            }
            u_diag[k] = pivot;
            for (&r, l) in s.l_rows[col.clone()].iter().zip(&mut l_vals[col]) {
                *l = std::mem::replace(&mut x[r], T::ZERO) / pivot;
            }
        }
        rfsim_telemetry::counter_add("lu.sparse.refactorizations", 1);
        Ok(SparseLu { analysis: Arc::clone(&self.analysis), l_vals, u_vals, u_diag })
    }

    /// Whether `a` has the pattern the analysis was made for: as many
    /// entries, and each analysed entry `(r, j)` at a place of `a`'s
    /// storage that holds column `j` of row `r`. Entries are distinct,
    /// so that place is a different one for each.
    fn has_pattern_of(&self, a: &Csr<T>) -> bool {
        let s = &*self.analysis;
        let n = s.q.len();
        a.rows == n
            && a.cols == n
            && a.nnz() == s.a_pos.len()
            && (0..n).all(|j| {
                (s.a_colptr[j]..s.a_colptr[j + 1]).all(|p| {
                    let (r, k) = (s.a_rows[p], s.a_pos[p]);
                    (a.row_ptr[r]..a.row_ptr[r + 1]).contains(&k) && a.col_idx[k] == j
                })
            })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.u_diag.len()
    }

    /// Total stored nonzeros in `L + U` (a fill-in measure).
    pub fn factor_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.order()
    }

    /// Whether `self` and `other` are factors on one analysis: one is a
    /// [refactorization](SparseLu::refactor) of the other, or both are
    /// of a third.
    pub fn shares_analysis(&self, other: &SparseLu<T>) -> bool {
        Arc::ptr_eq(&self.analysis, &other.analysis)
    }

    /// Bytes this factor holds beside its analysis: the struct and the
    /// buffers of `L`'s, `U`'s and the pivots' values.
    pub fn value_bytes(&self) -> usize {
        let vals = self.l_vals.capacity() + self.u_vals.capacity() + self.u_diag.capacity();
        std::mem::size_of::<Self>() + vals * std::mem::size_of::<T>()
    }

    /// Bytes the analysis holds, once for every factor that
    /// [shares](SparseLu::shares_analysis) it: its allocation (two
    /// reference counts and the struct) and its index buffers.
    pub fn analysis_bytes(&self) -> usize {
        let s = &*self.analysis;
        let words = 2 + [
            &s.q,
            &s.qinv,
            &s.slot,
            &s.l_colptr,
            &s.l_rows,
            &s.u_colptr,
            &s.u_rows,
            &s.a_colptr,
            &s.a_rows,
            &s.a_pos,
        ]
        .iter()
        .map(|v| v.capacity())
        .sum::<usize>();
        std::mem::size_of::<Analysis>() + words * std::mem::size_of::<usize>()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] for a wrong-sized `b`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        let mut x = vec![T::ZERO; self.order()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-provided buffer — the
    /// allocation-free form of [`SparseLu::solve`].
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] when `b` or `x` has the wrong
    /// length.
    pub fn solve_into(&self, b: &[T], x: &mut [T]) -> Result<()> {
        let s = &*self.analysis;
        let n = self.order();
        if b.len() != n {
            return Err(Error::DimensionMismatch { expected: n, found: b.len() });
        }
        if x.len() != n {
            return Err(Error::DimensionMismatch { expected: n, found: x.len() });
        }
        // P·b, each row at its position.
        for (&p, &bi) in s.slot.iter().zip(b) {
            x[p] = bi;
        }
        // Forward solve L·y = P·b (unit diagonal).
        for (k, &pk) in s.q.iter().enumerate() {
            let yk = x[pk];
            if yk == T::ZERO {
                continue;
            }
            let col = s.l_colptr[k]..s.l_colptr[k + 1];
            for (&r, &l) in s.l_rows[col.clone()].iter().zip(&self.l_vals[col]) {
                x[r] -= l * yk;
            }
        }
        // Backward solve U·w = y, U stored by columns with separate
        // diagonal. w[k] is x[q[k]], so x ends in place.
        for (k, &pk) in s.q.iter().enumerate().rev() {
            x[pk] /= self.u_diag[k];
            let wk = x[pk];
            if wk == T::ZERO {
                continue;
            }
            let col = s.u_colptr[k]..s.u_colptr[k + 1];
            for (&r, &u) in s.u_rows[col.clone()].iter().zip(&self.u_vals[col]) {
                x[r] -= u * wk;
            }
        }
        Ok(())
    }

    /// Solves `Aᵀ·x = b` with the same factors: `Aᵀ = Q·Uᵀ·Lᵀ·P`. The
    /// transpose is the plain one (no conjugation for complex `T`), as in
    /// [`Csr::transpose`].
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] for a wrong-sized `b`.
    pub fn solve_transposed(&self, b: &[T]) -> Result<Vec<T>> {
        let s = &*self.analysis;
        let n = self.order();
        if b.len() != n {
            return Err(Error::DimensionMismatch { expected: n, found: b.len() });
        }
        // Qᵀ·b puts entry q[k] of b at step k, which is kept at q[k]: b
        // itself.
        let mut z = b.to_vec();
        // Forward solve Uᵀ·w = Qᵀ·b: column k of U is row k of Uᵀ.
        for (k, &pk) in s.q.iter().enumerate() {
            let mut acc = z[pk];
            let col = s.u_colptr[k]..s.u_colptr[k + 1];
            for (&r, &u) in s.u_rows[col.clone()].iter().zip(&self.u_vals[col]) {
                acc -= u * z[r];
            }
            z[pk] = acc / self.u_diag[k];
        }
        // Backward solve Lᵀ·v = w: column k of L is row k of Lᵀ.
        for (k, &pk) in s.q.iter().enumerate().rev() {
            let mut acc = z[pk];
            let col = s.l_colptr[k]..s.l_colptr[k + 1];
            for (&r, &l) in s.l_rows[col.clone()].iter().zip(&self.l_vals[col]) {
                acc -= l * z[r];
            }
            z[pk] = acc;
        }
        // x = Pᵀ·v.
        Ok(s.slot.iter().map(|&p| z[p]).collect())
    }
}

/// Encodes node `i` as a value ≤ −2 (−1 stays free for "none"); its own
/// inverse.
const fn flip(i: isize) -> isize {
    -i - 2
}

/// Approximate minimum degree order of `A + Aᵀ` for a square matrix
/// given by the compressed rows of `A` (`a_ptr`, `a_idx`) and of `Aᵀ`
/// (`t_ptr`, `t_idx`), each row sorted: `order[k]` is the node
/// eliminated `k`-th.
///
/// Elimination runs on the quotient graph, with element absorption,
/// mass elimination, supervariables (indistinguishable nodes found by
/// hashing), approximate external degrees, and nodes with more than
/// `max(16, 10·√n)` neighbours ordered last; the result is postordered
/// along the assembly tree (Amestoy, Davis & Duff, SIAM J. Matrix Anal.
/// Appl. 1996; Davis, *Direct Methods for Sparse Linear Systems*, SIAM
/// 2006, §7.1).
/// All state lives in one workspace allocation.
fn amd_order(a_ptr: &[usize], a_idx: &[usize], t_ptr: &[usize], t_idx: &[usize]) -> Vec<usize> {
    let n = a_ptr.len() - 1;
    let ni = n as isize;
    let m = n + 1;
    let dense = ((10.0 * (n as f64).sqrt()) as isize).max(16).min(ni - 2);
    // A + Aᵀ has at most 2·nnz(A) off-diagonal entries; the elbow room
    // behind them holds the new elements before garbage collection.
    let bound = 2 * a_idx.len();
    let nzmax = bound + bound / 5 + 2 * n;
    let mut ws = vec![0isize; 10 * m + nzmax];
    // Per node or element (index n is the element the dense nodes join):
    // `cp`/`len` its list in `ci` (elements first for a node), or once
    // absorbed, `cp` = flip(parent); `nv` supervariable size, negated
    // while in the new element; `elen` element count (−1 dead node, −2
    // element); `degree` approximate degree; `head`/`next`/`last` the
    // degree lists, `hhead` the hash buckets, and `w` set-difference
    // marks. `last` and `w` end as the postorder and its stack.
    let (cp, rest) = ws.split_at_mut(m);
    let (len, rest) = rest.split_at_mut(m);
    let (nv, rest) = rest.split_at_mut(m);
    let (next, rest) = rest.split_at_mut(m);
    let (head, rest) = rest.split_at_mut(m);
    let (elen, rest) = rest.split_at_mut(m);
    let (degree, rest) = rest.split_at_mut(m);
    let (w, rest) = rest.split_at_mut(m);
    let (hhead, rest) = rest.split_at_mut(m);
    let (last, ci) = rest.split_at_mut(m);

    // --- Quotient graph: the pattern of A + Aᵀ without its diagonal,
    // merged from the sorted rows of A and Aᵀ.
    let mut cnz = 0usize;
    for i in 0..n {
        cp[i] = cnz as isize;
        let (mut p, pe) = (a_ptr[i], a_ptr[i + 1]);
        let (mut q, qe) = (t_ptr[i], t_ptr[i + 1]);
        loop {
            let j = match (p < pe, q < qe) {
                (true, true) if a_idx[p] <= t_idx[q] => {
                    if a_idx[p] == t_idx[q] {
                        q += 1;
                    }
                    p += 1;
                    a_idx[p - 1]
                }
                (_, true) => {
                    q += 1;
                    t_idx[q - 1]
                }
                (true, false) => {
                    p += 1;
                    a_idx[p - 1]
                }
                (false, false) => break,
            };
            if j != i {
                ci[cnz] = j as isize;
                cnz += 1;
            }
        }
        len[i] = cnz as isize - cp[i];
    }
    for i in 0..m {
        head[i] = -1;
        last[i] = -1;
        next[i] = -1;
        hhead[i] = -1;
        nv[i] = 1;
        w[i] = 1;
        elen[i] = 0;
        degree[i] = len[i];
    }
    let mut mark = wclear(0, 0, w);
    elen[n] = -2; // n is the dead element that absorbs dense nodes
    cp[n] = -1; // and a root of the assembly tree
    w[n] = 0;
    let mut nel = 0isize;
    for i in 0..n {
        let d = degree[i];
        if d == 0 {
            // Empty node: a dead element and a root.
            elen[i] = -2;
            nel += 1;
            cp[i] = -1;
            w[i] = 0;
        } else if d > dense {
            // Dense node: absorbed into element n, ordered last.
            nv[i] = 0;
            elen[i] = -1;
            nel += 1;
            cp[i] = flip(ni);
            nv[n] += 1;
        } else {
            let d = d as usize;
            if head[d] != -1 {
                last[head[d] as usize] = i as isize;
            }
            next[i] = head[d];
            head[d] = i as isize;
        }
    }

    let mut mindeg = 0usize;
    let mut lemax = 0isize;
    while nel < ni {
        // --- Select a node of minimum approximate degree. ---
        let k = loop {
            if head[mindeg] != -1 {
                break head[mindeg] as usize;
            }
            mindeg += 1;
        };
        if next[k] != -1 {
            last[next[k] as usize] = -1;
        }
        head[mindeg] = next[k];
        let elenk = elen[k];
        let mut nvk = nv[k];
        nel += nvk;

        // --- Garbage collection. ---
        if elenk > 0 && cnz + mindeg >= nzmax {
            for j in 0..n {
                let p = cp[j];
                if p >= 0 {
                    // Tag the object's first entry with its owner.
                    cp[j] = ci[p as usize];
                    ci[p as usize] = flip(j as isize);
                }
            }
            let (mut q, mut p) = (0usize, 0usize);
            while p < cnz {
                let j = flip(ci[p]);
                p += 1;
                if j >= 0 {
                    let j = j as usize;
                    ci[q] = cp[j];
                    cp[j] = q as isize;
                    q += 1;
                    for _ in 1..len[j] {
                        ci[q] = ci[p];
                        q += 1;
                        p += 1;
                    }
                }
            }
            cnz = q;
        }

        // --- Construct the new element Lk from k's elements and nodes. ---
        let mut dk = 0isize;
        nv[k] = -nvk; // flags k as in Lk
        let mut p = cp[k] as usize;
        let pk1 = if elenk == 0 { p } else { cnz }; // in place if no elements
        let mut pk2 = pk1;
        for k1 in 1..=elenk + 1 {
            let (e, mut pj, ln) = if k1 > elenk {
                (k, p, len[k] - elenk)
            } else {
                let e = ci[p] as usize;
                p += 1;
                (e, cp[e] as usize, len[e])
            };
            for _ in 0..ln {
                let i = ci[pj] as usize;
                pj += 1;
                let nvi = nv[i];
                if nvi <= 0 {
                    continue; // dead, or already in Lk
                }
                dk += nvi;
                nv[i] = -nvi;
                ci[pk2] = i as isize;
                pk2 += 1;
                // Remove i from its degree list.
                if next[i] != -1 {
                    last[next[i] as usize] = last[i];
                }
                if last[i] != -1 {
                    next[last[i] as usize] = next[i];
                } else {
                    head[degree[i] as usize] = next[i];
                }
            }
            if e != k {
                cp[e] = flip(k as isize); // absorb e into k
                w[e] = 0;
            }
        }
        if elenk != 0 {
            cnz = pk2;
        }
        degree[k] = dk;
        cp[k] = pk1 as isize;
        len[k] = (pk2 - pk1) as isize;
        elen[k] = -2;

        // --- Set differences |Le \ Lk| for every element e next to Lk. ---
        mark = wclear(mark, lemax, w);
        for &i in &ci[pk1..pk2] {
            let i = i as usize;
            let eln = elen[i];
            if eln <= 0 {
                continue;
            }
            let nvi = -nv[i];
            let wnvi = mark - nvi;
            let p0 = cp[i] as usize;
            for &e in &ci[p0..p0 + eln as usize] {
                let e = e as usize;
                if w[e] >= mark {
                    w[e] -= nvi;
                } else if w[e] != 0 {
                    w[e] = degree[e] + wnvi; // first time e is seen
                }
            }
        }

        // --- Degree update, element absorption, mass elimination. ---
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            let p1 = cp[i] as usize;
            let p2 = p1 + elen[i] as usize;
            let mut pn = p1;
            let mut h = 0usize;
            let mut d = 0isize;
            for p in p1..p2 {
                let e = ci[p] as usize;
                if w[e] != 0 {
                    let dext = w[e] - mark;
                    if dext > 0 {
                        d += dext;
                        ci[pn] = e as isize;
                        pn += 1;
                        h += e;
                    } else {
                        cp[e] = flip(k as isize); // aggressive absorption
                        w[e] = 0;
                    }
                }
            }
            elen[i] = (pn - p1 + 1) as isize;
            let p3 = pn;
            let p4 = p1 + len[i] as usize;
            for p in p2..p4 {
                let j = ci[p] as usize;
                let nvj = nv[j];
                if nvj <= 0 {
                    continue; // dead, or in Lk
                }
                d += nvj;
                ci[pn] = j as isize;
                pn += 1;
                h += j;
            }
            if d == 0 {
                // Mass elimination: i is indistinguishable from k.
                cp[i] = flip(k as isize);
                let nvi = -nv[i];
                dk -= nvi;
                nvk += nvi;
                nel += nvi;
                nv[i] = 0;
                elen[i] = -1;
            } else {
                degree[i] = degree[i].min(d);
                // k becomes i's first element.
                ci[pn] = ci[p3];
                ci[p3] = ci[p1];
                ci[p1] = k as isize;
                len[i] = (pn - p1 + 1) as isize;
                let h = h % n;
                next[i] = hhead[h];
                hhead[h] = i as isize;
                last[i] = h as isize;
            }
        }
        degree[k] = dk;
        lemax = lemax.max(dk);
        mark = wclear(mark + lemax, lemax, w);

        // --- Supervariables: merge nodes of Lk with identical lists. ---
        for pk in pk1..pk2 {
            let i0 = ci[pk] as usize;
            if nv[i0] >= 0 {
                continue;
            }
            let h = last[i0] as usize;
            let mut i = hhead[h];
            hhead[h] = -1;
            while i != -1 && next[i as usize] != -1 {
                let iu = i as usize;
                let (ln, eln) = (len[iu], elen[iu]);
                let pi = cp[iu] as usize;
                for &x in &ci[pi + 1..pi + ln as usize] {
                    w[x as usize] = mark;
                }
                let mut jlast = iu;
                let mut j = next[iu];
                while j != -1 {
                    let ju = j as usize;
                    let pj = cp[ju] as usize;
                    let same = len[ju] == ln
                        && elen[ju] == eln
                        && ci[pj + 1..pj + ln as usize].iter().all(|&x| w[x as usize] == mark);
                    j = next[ju];
                    if same {
                        cp[ju] = flip(i); // absorb j into i
                        nv[iu] += nv[ju];
                        nv[ju] = 0;
                        elen[ju] = -1;
                        next[jlast] = j;
                    } else {
                        jlast = ju;
                    }
                }
                i = next[iu];
                mark += 1;
            }
        }

        // --- Finalize Lk and put its nodes back in the degree lists. ---
        let mut p = pk1;
        for pk in pk1..pk2 {
            let i = ci[pk] as usize;
            let nvi = -nv[i];
            if nvi <= 0 {
                continue;
            }
            nv[i] = nvi;
            let d = (degree[i] + dk - nvi).min(ni - nel - nvi);
            let du = d as usize;
            if head[du] != -1 {
                last[head[du] as usize] = i as isize;
            }
            next[i] = head[du];
            last[i] = -1;
            head[du] = i as isize;
            mindeg = mindeg.min(du);
            degree[i] = d;
            ci[p] = i as isize;
            p += 1;
        }
        nv[k] = nvk;
        len[k] = (p - pk1) as isize;
        if len[k] == 0 {
            cp[k] = -1; // a root of the assembly tree
            w[k] = 0;
        }
        if elenk != 0 {
            cnz = p;
        }
    }

    // --- Postorder the assembly tree (node n, with the dense nodes under
    // it, is the last root, so it lands in position n).
    for c in &mut cp[..n] {
        *c = flip(*c);
    }
    head.fill(-1);
    for j in (0..m).rev() {
        if nv[j] <= 0 {
            // An absorbed node: a child of its parent element.
            let parent = cp[j] as usize;
            next[j] = head[parent];
            head[parent] = j as isize;
        }
    }
    for e in (0..m).rev() {
        if nv[e] > 0 && cp[e] != -1 {
            let parent = cp[e] as usize;
            next[e] = head[parent];
            head[parent] = e as isize;
        }
    }
    let mut k = 0;
    for i in 0..m {
        if cp[i] == -1 {
            k = tdfs(i, k, head, next, last, w);
        }
    }
    last[..n].iter().map(|&v| v as usize).collect()
}

/// Resets the marks `w` when `mark` is about to run out of range;
/// afterwards every live entry of `w` is below the returned mark.
fn wclear(mark: isize, lemax: isize, w: &mut [isize]) -> isize {
    if mark >= 2 && mark.checked_add(lemax).is_some() {
        return mark;
    }
    for x in w.iter_mut().filter(|x| **x != 0) {
        *x = 1;
    }
    2
}

/// Depth-first postorder of the tree rooted at `j` (children listed by
/// `head`/`next`, consumed), written to `post` from position `k`; returns
/// the next free position.
fn tdfs(
    j: usize,
    mut k: usize,
    head: &mut [isize],
    next: &[isize],
    post: &mut [isize],
    stack: &mut [isize],
) -> usize {
    stack[0] = j as isize;
    let mut top = 1;
    while top > 0 {
        let p = stack[top - 1] as usize;
        let i = head[p];
        if i == -1 {
            top -= 1;
            post[k] = p as isize;
            k += 1;
        } else {
            head[p] = next[i as usize];
            stack[top] = i;
            top += 1;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;

    fn laplacian_1d(n: usize) -> Csr<f64> {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn triplets_accumulate_and_drop_zero() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 2.0);
        t.push(0, 1, -2.0); // cancels to zero → dropped
        t.push(1, 0, 5.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(1, 0), 5.0);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = laplacian_1d(6);
        let x: Vec<f64> = (0..6).map(|i| (i as f64 + 1.0).sin()).collect();
        let y = a.matvec(&x);
        let yd = a.to_dense().matvec(&x);
        for (s, d) in y.iter().zip(&yd) {
            assert!((s - d).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut t = Triplets::new(3, 2);
        t.push(0, 1, 1.0);
        t.push(2, 0, 4.0);
        let a = t.to_csr();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn sparse_lu_tridiagonal() {
        let a = laplacian_1d(50);
        let xref: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).cos()).collect();
        let b = a.matvec(&xref);
        let x = a.solve(&b).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-10);
        }
    }

    #[test]
    fn sparse_lu_needs_pivoting() {
        // Zero diagonal forces off-diagonal pivoting.
        let mut t = Triplets::new(3, 3);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 2, 2.0);
        t.push(2, 2, 1.0);
        let a = t.to_csr();
        let b = [1.0, 3.0, 1.0];
        let x = a.solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_detected() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 2.0);
        // Column 1 is empty → structurally singular.
        let a = t.to_csr();
        assert!(matches!(a.lu(), Err(Error::Singular(_))));
    }

    #[test]
    fn complex_sparse_solve() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, Complex::new(1.0, 1.0));
        t.push(0, 1, Complex::I);
        t.push(1, 1, Complex::new(2.0, -1.0));
        let a = t.to_csr();
        let xref = vec![Complex::new(0.5, -0.5), Complex::new(1.0, 2.0)];
        let b = a.matvec(&xref);
        let x = a.solve(&b).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((*xi - *ri).abs() < 1e-12);
        }
    }

    #[test]
    fn random_pattern_vs_dense() {
        // Deterministic pseudo-random sparse matrix compared against the
        // dense LU on the same system.
        let n = 25;
        let mut t = Triplets::new(n, n);
        let mut seed = 12345u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64 / 2.0) - 1.0
        };
        for i in 0..n {
            t.push(i, i, 4.0 + rnd());
            for _ in 0..3 {
                let j = ((rnd().abs() * n as f64) as usize).min(n - 1);
                t.push(i, j, rnd());
            }
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xs = a.solve(&b).unwrap();
        let xd = a.to_dense().solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-9, "sparse {s} dense {d}");
        }
    }

    #[test]
    fn solve_transposed_matches_transpose_factorization() {
        // Complex, with zero diagonals that force off-diagonal pivots.
        let n = 6;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            let f = i as f64;
            t.push(i, (i + 1) % n, Complex::new(3.0 + f, 1.0 - f));
            t.push(i, (i + 3) % n, Complex::new(0.5, 0.25 * f));
        }
        let a = t.to_csr();
        let lu = a.lu().unwrap();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(1.0 + i as f64, -0.5)).collect();
        let x = lu.solve_transposed(&b).unwrap();
        let xref = a.transpose().lu().unwrap().solve(&b).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((*xi - *ri).abs() < 1e-12, "{xi:?} vs {ri:?}");
        }
        let r = a.matvec_transposed(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((*ri - *bi).abs() < 1e-12);
        }
        assert!(matches!(lu.solve_transposed(&b[1..]), Err(Error::DimensionMismatch { .. })));
    }

    #[test]
    fn refactor_of_the_same_values_is_bitwise_new() {
        // Zero diagonals force off-diagonal pivots, so the pivot sequence
        // is not the column order.
        let a = {
            let mut t = Triplets::new(6, 6);
            for i in 0..6 {
                let f = i as f64;
                t.push(i, (i + 1) % 6, Complex::new(3.0 + f, 1.0 - f));
                t.push(i, (i + 3) % 6, Complex::new(0.5, 0.25 * f));
            }
            t.to_csr()
        };
        let lu = a.lu().unwrap();
        let again = lu.refactor(&a).unwrap();
        assert!(again.shares_analysis(&lu));
        assert_eq!(again.l_vals, lu.l_vals);
        assert_eq!(again.u_vals, lu.u_vals);
        assert_eq!(again.u_diag, lu.u_diag);
        assert!(!a.lu().unwrap().shares_analysis(&lu));
        // A refactorization's buffers are exactly as long as its values.
        let own = std::mem::size_of::<SparseLu<Complex>>();
        assert_eq!(again.value_bytes(), own + 16 * again.factor_nnz());
        assert!(lu.value_bytes() >= own + 16 * lu.factor_nnz());
        assert!(lu.analysis_bytes() > std::mem::size_of::<Analysis>());
    }

    #[test]
    fn refactor_rejects_another_pattern() {
        let a = laplacian_1d(5);
        let lu = a.lu().unwrap();
        let b = a.add_scaled(1.0, &Csr::identity(5), 1.0); // same pattern
        assert!(lu.refactor(&b).unwrap().shares_analysis(&lu));
        let mut t = Triplets::new(5, 5);
        for (i, j, v) in a.iter() {
            t.push(i, j, v);
        }
        t.push(0, 4, 1.0);
        assert!(matches!(lu.refactor(&t.to_csr()), Err(Error::InvalidArgument(_))));
        assert!(matches!(lu.refactor(&laplacian_1d(4)), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = laplacian_1d(7);
        let lu = a.lu().unwrap();
        let b: Vec<f64> = (0..7).map(|i| (i as f64).cos()).collect();
        let mut x = vec![0.0; 7];
        lu.solve_into(&b, &mut x).unwrap();
        assert_eq!(x, lu.solve(&b).unwrap());
        assert!(matches!(lu.solve_into(&b[1..], &mut x), Err(Error::DimensionMismatch { .. })));
        assert!(matches!(lu.solve_into(&b, &mut x[1..]), Err(Error::DimensionMismatch { .. })));
    }

    /// The column order [`SparseLu::new`] factors `a` in.
    fn column_order(a: &Csr<f64>) -> Vec<usize> {
        let at = a.transpose();
        amd_order(&a.row_ptr, &a.col_idx, &at.row_ptr, &at.col_idx)
    }

    #[test]
    fn column_order_is_a_permutation() {
        let from = |n: usize, entries: &[(usize, usize)]| {
            let mut t = Triplets::new(n, n);
            for &(i, j) in entries {
                t.push(i, j, 1.0 + (i * n + j) as f64);
            }
            t.to_csr()
        };
        let n = 300;
        // Row 0 and column 0 are full: degree 299, above the dense
        // threshold 10·√300 ≈ 173.
        let mut arrow: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        arrow.extend((1..n).flat_map(|i| [(0, i), (i, 0)]));
        // Two decoupled tridiagonal blocks and an isolated node.
        let mut blocks: Vec<(usize, usize)> = (0..9).map(|i| (i, i)).collect();
        blocks.extend((0..3).flat_map(|i| [(i, i + 1), (i + 1, i)]));
        blocks.extend((5..8).flat_map(|i| [(i, i + 1), (i + 1, i)]));
        let cases = [
            ("n = 0", from(0, &[])),
            ("n = 1", from(1, &[(0, 0)])),
            ("zero diagonal", from(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 3)])),
            ("empty row", from(5, &[(0, 0), (1, 1), (1, 2), (3, 3), (4, 4), (4, 0), (3, 2)])),
            ("dense row", from(n, &arrow)),
            ("disconnected blocks", from(9, &blocks)),
        ];
        for (name, a) in &cases {
            let mut q = column_order(a);
            q.sort_unstable();
            assert!(q.iter().copied().eq(0..a.rows()), "{name}: {q:?}");
        }
        // The arrow matrix solves correctly with its dense node last.
        let a = &cases[4].1;
        assert_eq!(column_order(a).last(), Some(&0));
        let xref: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let x = a.solve(&a.matvec(&xref)).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-9);
        }
    }

    #[test]
    fn density_and_fill() {
        let a = laplacian_1d(100);
        assert!(a.density() < 0.03);
        let lu = a.lu().unwrap();
        // Tridiagonal LU has no fill-in beyond the band.
        assert!(lu.factor_nnz() <= 3 * 100);
    }

    #[test]
    fn add_scaled_combines() {
        let a = laplacian_1d(4);
        let id = Csr::identity(4);
        let c = a.add_scaled(2.0, &id, 3.0);
        assert_eq!(c.get(0, 0), 7.0);
        assert_eq!(c.get(0, 1), -2.0);
    }

    #[test]
    fn matvec_transposed_matches() {
        let mut t = Triplets::new(2, 3);
        t.push(0, 2, 1.5);
        t.push(1, 0, -2.0);
        let a = t.to_csr();
        let x = [1.0, 2.0];
        let y = a.matvec_transposed(&x);
        let yd = a.to_dense().transpose().matvec(&x);
        assert_eq!(y, yd);
    }
}
