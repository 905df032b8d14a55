//! Kernel (Gram) matrices: the similarity matrices of §4.1.

use kastio_core::{IdString, StringKernel};

/// A dense symmetric kernel matrix.
///
/// Stores the full `n×n` grid (the matrices of the paper are 110×110, so
/// compactness is irrelevant and O(1) indexed access wins).
///
/// # Examples
///
/// ```
/// use kastio_kernels::KernelMatrix;
///
/// let m = KernelMatrix::from_fn(2, |i, j| (i + j) as f64);
/// assert_eq!(m.get(0, 1), 1.0);
/// assert_eq!(m.get(1, 0), 1.0);
/// assert!(m.is_symmetric(0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMatrix {
    n: usize,
    values: Vec<f64>,
}

impl KernelMatrix {
    /// A zero matrix of side `n`.
    pub fn zeros(n: usize) -> Self {
        KernelMatrix { n, values: vec![0.0; n * n] }
    }

    /// Builds a symmetric matrix by evaluating `f(i, j)` for `i ≤ j` and
    /// mirroring.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut m = KernelMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = f(i, j);
                m.set(i, j, v);
            }
        }
        m
    }

    /// Side length of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.values[i * self.n + j]
    }

    /// Writes entry `(i, j)` *and its mirror* `(j, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.values[i * self.n + j] = value;
        self.values[j * self.n + i] = value;
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for j in i + 1..self.n {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// The extreme off-diagonal values `(min, max)`; `None` when `n < 2`.
    pub fn off_diagonal_range(&self) -> Option<(f64, f64)> {
        if self.n < 2 {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    let v = self.get(i, j);
                    min = min.min(v);
                    max = max.max(v);
                }
            }
        }
        Some((min, max))
    }
}

/// Whether [`gram_matrix`] fills in raw or normalised kernel values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GramMode {
    /// Normalised values (the paper's similarity matrices).
    ///
    /// The diagonal self-kernels are **memoised**: `raw(s_i, s_i)` is
    /// evaluated once per string (`n` evaluations for an `n×n` matrix,
    /// not once per pair) and every entry is normalised through
    /// [`StringKernel::normalized_with_self`]. For kernels whose `raw`
    /// is call-to-call deterministic — the Kast kernel is, by its
    /// bit-identity contract — the values are bit-identical to calling
    /// [`StringKernel::normalized`] per pair. (The HashMap-based
    /// spectrum baselines sum features in map iteration order, so their
    /// raw values may already wobble in the last ULP between calls;
    /// memoisation neither adds to nor removes that.) The diagonal is
    /// exactly `1.0` wherever the self-kernel is positive (and `0.0`
    /// where it vanishes, e.g. empty strings).
    #[default]
    Normalized,
    /// Raw kernel values.
    Raw,
}

/// Computes the Gram matrix of `strings` under `kernel`, in parallel.
///
/// Work is split by rows of the upper triangle across `threads` OS threads
/// (clamped to the number of rows; 0 means "use available parallelism").
/// In [`GramMode::Normalized`] the self-kernel diagonal is computed first
/// (once per string) and shared by every pair evaluation — see
/// [`GramMode::Normalized`] for the memoisation contract.
///
/// # Examples
///
/// ```
/// use kastio_core::{KastKernel, KastOptions, TokenInterner, WeightedString};
/// use kastio_core::token::{TokenLiteral, WeightedToken};
/// use kastio_kernels::{gram_matrix, GramMode};
///
/// let mut interner = TokenInterner::new();
/// let strings: Vec<_> = ["a", "b"]
///     .iter()
///     .map(|name| {
///         let s: WeightedString =
///             [WeightedToken::new(TokenLiteral::Sym((*name).into()), 4)].into_iter().collect();
///         interner.intern_string(&s)
///     })
///     .collect();
/// let kernel = KastKernel::new(KastOptions::with_cut_weight(2));
/// let gram = gram_matrix(&kernel, &strings, GramMode::Normalized, 1);
/// assert_eq!(gram.get(0, 0), 1.0);
/// assert_eq!(gram.get(0, 1), 0.0);
/// ```
pub fn gram_matrix<K>(
    kernel: &K,
    strings: &[IdString],
    mode: GramMode,
    threads: usize,
) -> KernelMatrix
where
    K: StringKernel + Sync,
{
    let n = strings.len();
    let mut matrix = KernelMatrix::zeros(n);
    if n == 0 {
        return matrix;
    }
    let threads = worker_count(threads, n);
    // Memoised diagonal: in normalised mode every pair shares the n
    // self-kernels instead of recomputing them per entry (O(n) instead of
    // O(n²) self-kernel evaluations).
    let diag: Option<Vec<f64>> = match mode {
        GramMode::Raw => None,
        GramMode::Normalized => Some(self_kernels(kernel, strings, threads)),
    };
    let diag = diag.as_deref();
    if threads <= 1 {
        for i in 0..n {
            for j in i..n {
                matrix.set(i, j, eval(kernel, strings, i, j, diag));
            }
        }
        return matrix;
    }

    // Each worker computes full rows of the upper triangle, striped so the
    // (uneven) row lengths balance out.
    let rows: Vec<Vec<(usize, Vec<f64>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut acc = Vec::new();
                    let mut i = t;
                    while i < n {
                        let row: Vec<f64> =
                            (i..n).map(|j| eval(kernel, strings, i, j, diag)).collect();
                        acc.push((i, row));
                        i += threads;
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("gram worker panicked")).collect()
    });

    for chunk in rows {
        for (i, row) in chunk {
            for (off, v) in row.into_iter().enumerate() {
                matrix.set(i, i + off, v);
            }
        }
    }
    matrix
}

/// The raw self-kernel of every string, striped across `threads` workers.
fn self_kernels<K>(kernel: &K, strings: &[IdString], threads: usize) -> Vec<f64>
where
    K: StringKernel + Sync,
{
    let n = strings.len();
    if threads <= 1 || n < 2 {
        return strings.iter().map(|s| kernel.raw(s, s)).collect();
    }
    let mut diag = vec![0.0; n];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut acc = Vec::new();
                    let mut i = t;
                    while i < n {
                        acc.push((i, kernel.raw(&strings[i], &strings[i])));
                        i += threads;
                    }
                    acc
                })
            })
            .collect();
        for handle in handles {
            for (i, v) in handle.join().expect("self-kernel worker panicked") {
                diag[i] = v;
            }
        }
    });
    diag
}

fn worker_count(requested: usize, n: usize) -> usize {
    let available = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let t = if requested == 0 { available } else { requested };
    t.clamp(1, n.max(1))
}

/// One Gram entry: raw when `diag` is `None`, otherwise normalised
/// through the memoised self-kernel diagonal.
fn eval<K: StringKernel>(
    kernel: &K,
    strings: &[IdString],
    i: usize,
    j: usize,
    diag: Option<&[f64]>,
) -> f64 {
    match diag {
        None => kernel.raw(&strings[i], &strings[j]),
        Some(diag) => kernel.normalized_with_self(&strings[i], &strings[j], diag[i], diag[j]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::KSpectrumKernel;
    use kastio_core::token::{TokenLiteral, WeightedToken};
    use kastio_core::{TokenInterner, WeightedString};

    fn strings(specs: &[&[(&str, u64)]]) -> Vec<IdString> {
        let mut interner = TokenInterner::new();
        specs
            .iter()
            .map(|spec| {
                let s: WeightedString = spec
                    .iter()
                    .map(|&(name, w)| WeightedToken::new(TokenLiteral::Sym(name.to_string()), w))
                    .collect();
                interner.intern_string(&s)
            })
            .collect()
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let ss = strings(&[
            &[("p", 1), ("q", 2), ("r", 3)],
            &[("q", 2), ("r", 3)],
            &[("z", 9)],
            &[("p", 1), ("q", 5)],
            &[("r", 3), ("p", 1), ("q", 2)],
        ]);
        let kernel = KSpectrumKernel::new(2);
        let seq = gram_matrix(&kernel, &ss, GramMode::Normalized, 1);
        let par = gram_matrix(&kernel, &ss, GramMode::Normalized, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn gram_is_symmetric_with_unit_diagonal_where_defined() {
        let ss = strings(&[&[("p", 1), ("q", 2)], &[("q", 2), ("p", 1)], &[("p", 1)]]);
        let g = gram_matrix(&KSpectrumKernel::new(1), &ss, GramMode::Normalized, 0);
        assert!(g.is_symmetric(0.0));
        for i in 0..g.n() {
            assert!((g.get(i, i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn raw_mode_keeps_magnitudes() {
        let ss = strings(&[&[("p", 3)], &[("p", 5)]]);
        let g = gram_matrix(&KSpectrumKernel::new(1), &ss, GramMode::Raw, 1);
        assert_eq!(g.get(0, 1), 15.0);
        assert_eq!(g.get(0, 0), 9.0);
    }

    #[test]
    fn empty_input() {
        let g = gram_matrix(&KSpectrumKernel::new(1), &[], GramMode::Raw, 0);
        assert_eq!(g.n(), 0);
        assert!(g.off_diagonal_range().is_none());
    }

    #[test]
    fn normalized_mode_memoised_diagonal_is_bit_identical_to_per_pair() {
        use kastio_core::{KastKernel, KastOptions, Normalization};
        let ss = strings(&[
            &[("p", 2), ("q", 3), ("r", 5)],
            &[("q", 3), ("r", 5)],
            &[("p", 2), ("q", 3), ("r", 5), ("p", 2), ("q", 3)],
            &[("z", 9)],
            &[], // degenerate: zero self-kernel
        ]);
        for normalization in [Normalization::Cosine, Normalization::WeightProduct] {
            let kernel =
                KastKernel::new(KastOptions { normalization, ..KastOptions::with_cut_weight(2) });
            for threads in [1, 3] {
                let g = gram_matrix(&kernel, &ss, GramMode::Normalized, threads);
                for i in 0..ss.len() {
                    for j in 0..ss.len() {
                        let direct = kernel.normalized(&ss[i], &ss[j]);
                        assert_eq!(
                            g.get(i, j).to_bits(),
                            direct.to_bits(),
                            "({i},{j}) with {normalization:?}, {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn normalized_mode_unit_diagonal_where_defined() {
        use kastio_core::{KastKernel, KastOptions};
        // Cosine-normalised Kast: the diagonal is exactly 1.0 wherever the
        // self-kernel is positive, and 0.0 where it vanishes — the memoised
        // diagonal must preserve both.
        let ss = strings(&[&[("p", 2), ("q", 3)], &[("r", 9)], &[]]);
        let kernel = KastKernel::new(KastOptions::with_cut_weight(2));
        let g = gram_matrix(&kernel, &ss, GramMode::Normalized, 0);
        assert_eq!(g.get(0, 0), 1.0);
        assert_eq!(g.get(1, 1), 1.0);
        assert_eq!(g.get(2, 2), 0.0, "empty string has no self-kernel");
    }

    #[test]
    fn from_fn_and_range() {
        let m = KernelMatrix::from_fn(3, |i, j| if i == j { 1.0 } else { 0.25 });
        assert_eq!(m.off_diagonal_range(), Some((0.25, 0.25)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        KernelMatrix::zeros(2).get(2, 0);
    }
}
