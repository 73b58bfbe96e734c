//! Dense matrices over [`Scalar`] (both `f64` and [`Complex`](crate::Complex))
//! with LU and QR factorizations.
//!
//! Row-major storage. These kernels back the small/medium dense problems in
//! the toolkit: MNA Jacobians for modest circuits, HB Jacobians in the
//! "traditional direct" mode, MoM matrices before compression, ROM reduced
//! matrices, and monodromy matrices.

use crate::scalar::Scalar;
use crate::{Error, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Panel width for the blocked LU factorization. Sized so a panel row
/// segment plus the pivot row stay L1-resident; factors of order ≤ 32
/// (the HB per-bin blocks) degenerate to the classic unblocked sweep.
pub const LU_PANEL: usize = 32;

/// A dense row-major matrix over scalar type `T`.
///
/// ```
/// use rfsim_numerics::dense::Mat;
///
/// let a: Mat<f64> = Mat::identity(3);
/// assert_eq!(a[(1, 1)], 1.0);
/// assert_eq!(a[(0, 1)], 0.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![T::ZERO; rows * cols] }
    }

    /// Creates the identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Mat { rows: r, cols: c, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<T> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Sets column `j` from a slice.
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows()`.
    pub fn set_col(&mut self, j: usize, v: &[T]) {
        assert_eq!(v.len(), self.rows, "set_col: length mismatch");
        for i in 0..self.rows {
            self[(i, j)] = v[i];
        }
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Mat<T> {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose (Hermitian adjoint). For real matrices this is
    /// the ordinary transpose.
    pub fn adjoint(&self) -> Mat<T> {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::ZERO; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-provided buffer (no
    /// allocation). Identical arithmetic order to [`Mat::matvec`].
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        assert_eq!(y.len(), self.rows, "matvec_into: output length mismatch");
        for i in 0..self.rows {
            // Unconjugated row·x kernel; its scalar fallback matches the
            // historical accumulation loop bitwise.
            y[i] = T::slice_dotu(self.row(i), x);
        }
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, b: &Mat<T>) -> Mat<T> {
        assert_eq!(self.cols, b.rows, "matmul: inner dimension mismatch");
        let mut c = Mat::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            let ci = c.row_mut(i);
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == T::ZERO {
                    continue;
                }
                // ikj update c_i ← c_i + a_ik·b_k as a row axpy; the
                // scalar fallback matches the historical loop bitwise.
                T::slice_axpy(aik, b.row(k), ci);
            }
        }
        c
    }

    /// Scales every entry by a real factor, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v = v.scale_by(s);
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v.modulus() * v.modulus()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.modulus()))
    }

    /// Splits out row `k` (shared) and row `i` (mutable). Requires `k < i`.
    fn row_pair_mut(&mut self, k: usize, i: usize) -> (&[T], &mut [T]) {
        debug_assert!(k < i, "row_pair_mut: need k < i");
        let c = self.cols;
        let (top, bottom) = self.data.split_at_mut(i * c);
        (&top[k * c..(k + 1) * c], &mut bottom[..c])
    }

    /// LU factorization with partial pivoting, organized as a blocked
    /// right-looking panel sweep (panel width [`LU_PANEL`]).
    ///
    /// Within a panel, rank-1 updates touch only the panel's own columns;
    /// the update of the trailing block is deferred to one pass of long
    /// row axpys per panel, which both streams cache lines and feeds the
    /// SIMD axpy kernel. Every element still receives its updates in
    /// ascending-`k` order with the same multiplier values, so the
    /// factorization (pivot choices included) is bitwise-identical to the
    /// classic unblocked loop whenever the scalar kernels are active.
    ///
    /// # Errors
    /// Returns [`Error::Singular`] if a pivot is exactly zero, and
    /// [`Error::InvalidArgument`] if the matrix is not square.
    pub fn lu(&self) -> Result<Lu<T>> {
        if !self.is_square() {
            return Err(Error::InvalidArgument("lu: matrix must be square"));
        }
        rfsim_telemetry::counter_add("lu.dense.factorizations", 1);
        crate::kernels::note_dispatch(1);
        let n = self.rows;
        let mut a = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign_swaps = 0usize;
        let mut kb = 0usize;
        while kb < n {
            let pe = (kb + LU_PANEL).min(n);
            for k in kb..pe {
                // Partial pivot: largest modulus in column k at or below
                // row k.
                let mut p = k;
                let mut pmax = a[(k, k)].modulus();
                for i in k + 1..n {
                    let m = a[(i, k)].modulus();
                    if m > pmax {
                        pmax = m;
                        p = i;
                    }
                }
                if pmax == 0.0 {
                    return Err(Error::Singular(k));
                }
                if p != k {
                    for j in 0..n {
                        let tmp = a[(k, j)];
                        a[(k, j)] = a[(p, j)];
                        a[(p, j)] = tmp;
                    }
                    perm.swap(k, p);
                    sign_swaps += 1;
                }
                let pivot = a[(k, k)];
                for i in k + 1..n {
                    let l = a[(i, k)] / pivot;
                    a[(i, k)] = l;
                    if l == T::ZERO {
                        continue;
                    }
                    // In-panel rank-1 update: panel columns only.
                    let (rk, ri) = a.row_pair_mut(k, i);
                    T::slice_axpy(-l, &rk[k + 1..pe], &mut ri[k + 1..pe]);
                }
            }
            // Deferred trailing update: columns pe..n catch up on every
            // elimination step of this panel, in ascending-k order.
            if pe < n {
                for i in kb + 1..n {
                    for k in kb..pe.min(i) {
                        let l = a[(i, k)];
                        if l == T::ZERO {
                            continue;
                        }
                        let (rk, ri) = a.row_pair_mut(k, i);
                        T::slice_axpy(-l, &rk[pe..], &mut ri[pe..]);
                    }
                }
            }
            kb = pe;
        }
        Ok(Lu { lu: a, perm, sign_swaps })
    }

    /// Solves `A·x = b` by LU factorization.
    ///
    /// # Errors
    /// Propagates [`Error::Singular`] from [`Mat::lu`], and returns
    /// [`Error::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        self.lu()?.solve(b)
    }

    /// Matrix inverse via LU.
    ///
    /// # Errors
    /// Returns [`Error::Singular`] for singular matrices.
    pub fn inverse(&self) -> Result<Mat<T>> {
        let lu = self.lu()?;
        let n = self.rows;
        let mut inv = Mat::zeros(n, n);
        let mut e = vec![T::ZERO; n];
        for j in 0..n {
            e[j] = T::ONE;
            let x = lu.solve(&e)?;
            inv.set_col(j, &x);
            e[j] = T::ZERO;
        }
        Ok(inv)
    }

    /// Determinant via LU; zero for singular matrices.
    pub fn det(&self) -> T {
        match self.lu() {
            Ok(lu) => lu.det(),
            Err(_) => T::ZERO,
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for Mat<T> {
    type Output = T;
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Mat<T> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl<T: Scalar> Add for &Mat<T> {
    type Output = Mat<T>;
    fn add(self, rhs: &Mat<T>) -> Mat<T> {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "add: shape mismatch");
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o += *r;
        }
        out
    }
}

impl<T: Scalar> Sub for &Mat<T> {
    type Output = Mat<T>;
    fn sub(self, rhs: &Mat<T>) -> Mat<T> {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "sub: shape mismatch");
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o -= *r;
        }
        out
    }
}

impl<T: Scalar> Mul for &Mat<T> {
    type Output = Mat<T>;
    fn mul(self, rhs: &Mat<T>) -> Mat<T> {
        self.matmul(rhs)
    }
}

/// LU factorization with partial pivoting, `P·A = L·U`.
///
/// Produced by [`Mat::lu`]; reusable across multiple right-hand sides, which
/// the transient and shooting engines rely on.
#[derive(Clone)]
pub struct Lu<T> {
    lu: Mat<T>,
    perm: Vec<usize>,
    sign_swaps: usize,
}

impl<T: Scalar> fmt::Debug for Lu<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lu(order = {}, swaps = {})", self.lu.rows(), self.sign_swaps)
    }
}

impl<T: Scalar> Lu<T> {
    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        let mut x = vec![T::ZERO; self.lu.rows];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-provided buffer — the
    /// allocation-free form of [`Lu::solve`] for hot loops that reuse
    /// `x`.
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] when `b` or `x` has the wrong
    /// length.
    pub fn solve_into(&self, b: &[T], x: &mut [T]) -> Result<()> {
        let n = self.lu.rows;
        if b.len() != n {
            return Err(Error::DimensionMismatch { expected: n, found: b.len() });
        }
        if x.len() != n {
            return Err(Error::DimensionMismatch { expected: n, found: x.len() });
        }
        // Apply permutation.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        if crate::kernels::simd_active() {
            // Row-dot substitution: one fused reduction per row. The
            // reduction reassociates relative to the sequential loop, so
            // this arm only runs under the tolerance-gated SIMD dispatch.
            for i in 1..n {
                let (head, tail) = x.split_at_mut(i);
                tail[0] -= T::slice_dotu(&self.lu.row(i)[..i], head);
            }
            for i in (0..n).rev() {
                let (head, tail) = x.split_at_mut(i + 1);
                let acc = head[i] - T::slice_dotu(&self.lu.row(i)[i + 1..], tail);
                head[i] = acc / self.lu[(i, i)];
            }
            return Ok(());
        }
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Solves `Aᵀ·x = b` (plain transpose, no conjugation), used by adjoint
    /// sensitivity computations such as the phase-noise PPV.
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve_transposed(&self, b: &[T]) -> Result<Vec<T>> {
        let n = self.lu.rows;
        if b.len() != n {
            return Err(Error::DimensionMismatch { expected: n, found: b.len() });
        }
        // A = Pᵀ L U  ⇒  Aᵀ = Uᵀ Lᵀ P. Solve Uᵀ z = b, then Lᵀ w = z, then
        // x = Pᵀ w (i.e. x[perm[i]] = w[i]).
        let mut z = b.to_vec();
        for i in 0..n {
            let mut acc = z[i];
            for j in 0..i {
                acc -= self.lu[(j, i)] * z[j];
            }
            z[i] = acc / self.lu[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = z[i];
            for j in i + 1..n {
                acc -= self.lu[(j, i)] * z[j];
            }
            z[i] = acc;
        }
        let mut x = vec![T::ZERO; n];
        for i in 0..n {
            x[self.perm[i]] = z[i];
        }
        Ok(x)
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> T {
        let n = self.lu.rows;
        let mut d = T::ONE;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        if self.sign_swaps % 2 == 1 {
            d = -d;
        }
        d
    }
}

/// Householder QR factorization of a real or complex matrix, `A = Q·R`.
///
/// Used by the Arnoldi ROM and by least-squares fits in the extraction crate.
#[derive(Clone)]
pub struct Qr<T> {
    /// Orthonormal factor, `m×n` (thin).
    pub q: Mat<T>,
    /// Upper triangular factor, `n×n`.
    pub r: Mat<T>,
}

impl<T: Scalar> fmt::Debug for Qr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Qr({}x{})", self.q.rows(), self.q.cols())
    }
}

impl<T: Scalar> Qr<T> {
    /// Computes a thin QR of `a` (requires `rows ≥ cols`) by modified
    /// Gram–Schmidt with one reorthogonalization pass — adequate and robust
    /// for the moderately sized, well-scaled matrices the toolkit feeds it.
    ///
    /// # Errors
    /// Returns [`Error::InvalidArgument`] when `rows < cols`, and
    /// [`Error::Breakdown`] when a column is numerically linearly dependent.
    pub fn new(a: &Mat<T>) -> Result<Self> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(Error::InvalidArgument("qr: need rows >= cols"));
        }
        let mut q = Mat::zeros(m, n);
        let mut r = Mat::zeros(n, n);
        for j in 0..n {
            let mut v = a.col(j);
            // Two passes of MGS for numerical orthogonality.
            for _pass in 0..2 {
                for i in 0..j {
                    let qi = q.col(i);
                    let h = crate::scalar::gdot(&qi, &v);
                    r[(i, j)] += h;
                    T::slice_axpy(-h, &qi, &mut v);
                }
            }
            let nrm = crate::scalar::gnorm2(&v);
            if nrm < 1e-300 {
                return Err(Error::Breakdown("qr: linearly dependent column"));
            }
            r[(j, j)] = T::from_f64(nrm);
            T::slice_scale(&mut v, 1.0 / nrm);
            q.set_col(j, &v);
        }
        Ok(Qr { q, r })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;

    #[test]
    fn identity_solve_roundtrip() {
        let a: Mat<f64> = Mat::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = a.solve(&b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn lu_solves_general_real() {
        let a = Mat::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]);
        let xref = [1.0, -2.0, 3.0];
        let b = a.matvec(&xref);
        let x = a.solve(&b).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero leading entry forces a row swap.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_reports_error() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.lu(), Err(Error::Singular(_))));
        assert_eq!(a.det(), 0.0);
    }

    #[test]
    fn det_and_inverse() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((a.det() - (-2.0)).abs() < 1e-14);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        let id: Mat<f64> = Mat::identity(2);
        assert!((&prod - &id).norm_fro() < 1e-12);
    }

    #[test]
    fn complex_solve() {
        let j = Complex::I;
        let a = Mat::from_rows(&[&[Complex::ONE, j], &[-j, Complex::new(2.0, 0.0)]]);
        let xref = vec![Complex::new(1.0, 1.0), Complex::new(-0.5, 2.0)];
        let b = a.matvec(&xref);
        let x = a.solve(&b).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((*xi - *ri).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_solve_matches() {
        let a = Mat::from_rows(&[&[3.0, 1.0, 0.5], &[-1.0, 2.0, 0.0], &[0.0, 1.0, 4.0]]);
        let b = [1.0, 2.0, 3.0];
        let lu = a.lu().unwrap();
        let x = lu.solve_transposed(&b).unwrap();
        let at = a.transpose();
        let xref = at.solve(&b).unwrap();
        for (xi, ri) in x.iter().zip(&xref) {
            assert!((xi - ri).abs() < 1e-12);
        }
    }

    #[test]
    fn qr_orthogonality() {
        let a = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
        let qr = Qr::new(&a).unwrap();
        let qtq = qr.q.adjoint().matmul(&qr.q);
        let id: Mat<f64> = Mat::identity(2);
        assert!((&qtq - &id).norm_fro() < 1e-12);
        assert!((&qr.q.matmul(&qr.r) - &a).norm_fro() < 1e-12);
    }

    #[test]
    fn matmul_associativity_small() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!((&left - &right).norm_fro() < 1e-14);
    }

    #[test]
    fn ops_add_sub() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, -1.0]]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 1.0]);
        assert_eq!((&a - &b).as_slice(), &[-2.0, 3.0]);
    }
}
