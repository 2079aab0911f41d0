//! Dense linear algebra for the inference engine.
//!
//! Two tiers live here. [`Matrix`] is the readable reference
//! implementation that the property tests compare against. [`PackedMatrix`]
//! is the performance tier: one register-tiled panel walk (`MR` rows ×
//! `NR` outputs of accumulators held across the k-loop) that writes into
//! caller-owned scratch — no per-call allocation, no data-dependent
//! branches in the inner loops. tinyllm owns a real performance budget
//! (the bench crate records its trajectory in `BENCH_tinyllm.json`); the
//! simulation crates model timing, this crate has to earn it.
//!
//! Every GEMM weight is stored *panel-major*, and that storage is the
//! model's only copy of it. The columns are cut into panels of `NR` = 32
//! outputs, and each panel is stored k-major and contiguous: `k` rows of
//! 32 elements, the last panel narrower when 32 does not divide the
//! column count. A register tile covers exactly one panel, so its weights
//! arrive as one sequential stream, one 64-byte line of bf16 per k step,
//! where a row-major `(k × n)` matrix puts each step's segment `n`
//! elements past the last one. The kernels walk panels in the outer loop
//! and row bands in the inner loop, so a panel that one band pulled into
//! cache serves every other band of the batch. The reference tier reads
//! the same storage through `Matrix::row_runs`, `Matrix::col` and
//! `Matrix::at`.
//!
//! Weights are stored as [`Bf16`] and every operation computes in f32:
//! both tiers widen the same stored values exactly, so storage precision
//! never separates them. Every packed kernel accumulates each output
//! element over `k` in ascending order with a single accumulator (a
//! multiply, then an add; never fused) — the same association the
//! reference `Matrix::matmul` uses — so the fast path is bit-compatible
//! with the reference path, not merely close. That invariant is also why
//! the worker pool (`pool.rs`) can split the N dimension across threads
//! freely: each output element's multiply-add chain never depends on
//! which column strip it lands in, so threaded output is bit-identical to
//! single-threaded, not merely close.
//!
//! [`QuantMatrix`] is the int8 tier: per-output-channel symmetric
//! quantization done once at pack time, codes in the same panel layout,
//! dequantized in-register by the same walk. See its docs for the error
//! bound.

use std::sync::Arc;

/// A bfloat16 value: the upper half of an f32's bits (sign, the full
/// 8-bit exponent, 7 mantissa bits). Weights and K/V are stored in it at
/// half the bytes of f32; every operation widens it back, exactly, and
/// computes in f32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bf16(u16);

impl Bf16 {
    /// Rounds `x` to the nearest bf16, ties to even. Finite values past
    /// the largest bf16 round to ±infinity; a NaN stays a NaN with its
    /// sign and upper payload bits.
    #[must_use]
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        if x.is_nan() {
            // Truncate, but never to the infinity pattern: a payload that
            // lived only in the dropped half sets the quiet bit instead.
            let t = (bits >> 16) as u16;
            return Bf16(if t & 0x7f == 0 { t | 0x40 } else { t });
        }
        // Adding just under half a bf16 ulp, plus the kept lsb, carries
        // into the kept half exactly when the dropped half is past the
        // midpoint, or at it with an odd kept half. The carry may ripple
        // into the exponent: the next binade, or infinity past the max.
        let round = 0x7fff + ((bits >> 16) & 1);
        Bf16(((bits + round) >> 16) as u16)
    }

    /// The exact f32 value.
    #[must_use]
    pub fn to_f32(self) -> f32 {
        f32::from_bits(u32::from(self.0) << 16)
    }

    /// From a raw bit pattern.
    #[must_use]
    pub const fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// The raw bit pattern.
    #[must_use]
    pub const fn to_bits(self) -> u16 {
        self.0
    }
}

impl From<Bf16> for f32 {
    fn from(x: Bf16) -> f32 {
        x.to_f32()
    }
}

/// A matrix (reference tier): `f32` activations, or stored [`Bf16`]
/// weights. Activations are row-major. GEMM weights are panel-major:
/// their columns are cut into 32-wide panels, each stored k-major and
/// contiguous (the module docs give the reason). A matrix of at most 32
/// columns is a single panel, where the two layouts coincide.
/// [`Matrix::matmul`] and [`Matrix::to_panels`] read either layout;
/// [`Matrix::row`] needs rows to be contiguous.
///
/// The elements sit behind an [`Arc`] so a weight's kernel
/// ([`PackedMatrix::pack`]) shares its storage instead of copying it;
/// writers go through [`Arc::make_mut`], which copies only storage that
/// is actually shared.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T = f32> {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Elements in storage order, `rows * cols` long.
    pub data: Arc<Vec<T>>,
    /// Columns per storage panel, in `1..=cols`: `cols` when row-major,
    /// `NR` when panel-major.
    panel: usize,
}

impl<T> Matrix<T> {
    /// Wraps existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        Matrix::from_panels(rows, cols, cols, data)
    }

    /// Wraps data stored in panels of `panel` columns: the panels in
    /// column order, each `rows` rows of its width. `panel == cols` is
    /// row-major, `panel == NR` the weights' layout.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_panels(rows: usize, cols: usize, panel: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix {
            rows,
            cols,
            data: Arc::new(data),
            panel: panel.min(cols).max(1),
        }
    }

    /// Whether every row is contiguous in storage.
    fn rows_contiguous(&self) -> bool {
        self.panel >= self.cols
    }

    /// Storage index of element `(r, c)`: every panel before `c`'s is
    /// full width.
    fn index(&self, r: usize, c: usize) -> usize {
        let lo = c / self.panel * self.panel;
        lo * self.rows + r * self.panel.min(self.cols - lo) + (c - lo)
    }

    /// Immutable row view.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is panel-major with more than one panel.
    #[must_use]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(self.rows_contiguous(), "row view of a panel-major matrix");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Each storage panel as `(first column, width, elements)`, in column
    /// order; the elements are `rows × width`, row-major within the
    /// panel. A row-major matrix is one panel.
    pub(crate) fn panels(&self) -> impl Iterator<Item = (usize, usize, &[T])> + '_ {
        (0..self.cols).step_by(self.panel).map(move |lo| {
            let w = self.panel.min(self.cols - lo);
            (lo, w, &self.data[lo * self.rows..][..self.rows * w])
        })
    }

    /// Row `r` as contiguous storage runs in column order: the whole row
    /// when row-major, one run per panel when panel-major.
    pub(crate) fn row_runs(&self, r: usize) -> impl Iterator<Item = &[T]> + '_ {
        self.panels().map(move |(_, w, p)| &p[r * w..][..w])
    }
}

impl<T: Copy> Matrix<T> {
    /// Element `(r, c)`.
    pub(crate) fn at(&self, r: usize, c: usize) -> T {
        self.data[self.index(r, c)]
    }

    /// Column `c`, top to bottom: a strided read, one panel width apart.
    pub(crate) fn col(&self, c: usize) -> impl Iterator<Item = T> + '_ {
        let lo = c / self.panel * self.panel;
        let stride = self.panel.min(self.cols - lo);
        self.data[self.index(0, c)..]
            .iter()
            .step_by(stride)
            .take(self.rows)
            .copied()
    }

    /// The same matrix stored panel-major: shares the storage when it
    /// already is, copies it once otherwise.
    #[must_use]
    pub fn to_panels(&self) -> Self {
        if self.panel == NR.min(self.cols).max(1) {
            return self.clone();
        }
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for lo in (0..self.cols).step_by(NR) {
            let hi = (lo + NR).min(self.cols);
            for r in 0..self.rows {
                data.extend((lo..hi).map(|c| self.at(r, c)));
            }
        }
        Matrix::from_panels(self.rows, self.cols, NR, data)
    }
}

impl Matrix {
    /// Creates a zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::from_vec(rows, cols, vec![0.0; rows * cols])
    }

    /// The row-major elements, copied only if the storage is shared.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is panel-major with more than one panel.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        assert!(
            self.rows_contiguous(),
            "row-major elements of a panel-major matrix"
        );
        Arc::unwrap_or_clone(self.data)
    }

    /// Mutable row view.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is panel-major with more than one panel.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(self.rows_contiguous(), "row view of a panel-major matrix");
        &mut Arc::make_mut(&mut self.data)[r * self.cols..(r + 1) * self.cols]
    }

    /// Every element rounded to the nearest [`Bf16`] (ties to even), in
    /// the same layout: the stored form of a weight given as f32 values.
    #[must_use]
    pub fn to_bf16(&self) -> Matrix<Bf16> {
        let data = self.data.iter().map(|&v| Bf16::from_f32(v)).collect();
        Matrix::from_panels(self.rows, self.cols, self.panel, data)
    }

    /// `self × other`, where `self` is row-major and `other` is
    /// `(self.cols × n)` in either layout, its elements widened to f32.
    /// Reference implementation: allocating and unblocked. For each output
    /// row it walks `k` ascending, then the output columns in order, so
    /// every output accumulates over `k` ascending — the association
    /// every kernel keeps.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    #[must_use]
    pub fn matmul<W: Copy + Into<f32>>(&self, other: &Matrix<W>) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dims");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &a) in a_row.iter().enumerate() {
                let mut j = 0;
                for run in other.row_runs(k) {
                    for (o, &b) in out_row[j..j + run.len()].iter_mut().zip(run) {
                        *o += a * b.into();
                    }
                    j += run.len();
                }
            }
        }
        out
    }
}

/// Activation rows per register tile. Each panel row loaded from cache
/// is reused across `MR` output rows — reuse the `m = 1` token-at-a-time
/// path can never have. Six rows × four 8-lane vectors is 24 accumulator
/// registers; with the four widened weight vectors and a broadcast that
/// fits the 32 vector registers of AVX-512VL without spilling, which
/// eight rows (32 accumulators) cannot.
pub(crate) const MR: usize = 6;

/// Output columns per register tile and per weight panel: four 8-lane
/// f32 vectors per activation row, and one 64-byte line of bf16 weights
/// per k step. The `MR × NR` accumulator block stays in registers for
/// the whole k-loop; the activation rows (≤ a few KB) stay in L1 while
/// the panel streams through.
pub(crate) const NR: usize = 32;

/// A bf16 weight matrix in the kernels' layout: panel-major (see the
/// module docs). Packing happens once at model build; every forward pass
/// then reads each panel as one unit-stride stream, widening each weight
/// to f32 as it is loaded.
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    /// Input dimension (rows of the logical weight).
    pub k: usize,
    /// Output dimension (columns of the logical weight).
    pub n: usize,
    /// The panel-major elements. Behind an [`Arc`] so the worker pool can
    /// hand each long-lived thread a `'static` handle to the weights
    /// without copying them and without `unsafe` (the workspace denies
    /// it).
    data: Arc<Vec<Bf16>>,
}

impl PackedMatrix {
    /// Packs a `(k × n)` weight. A panel-major weight — every weight a
    /// model draws — is already the kernel's layout, so the result
    /// shares its storage; a row-major one is copied into panels once.
    #[must_use]
    pub fn pack(w: &Matrix<Bf16>) -> Self {
        let w = w.to_panels();
        PackedMatrix {
            k: w.rows,
            n: w.cols,
            data: w.data,
        }
    }

    /// The packed elements (to check what storage a kernel shares).
    #[cfg(test)]
    pub(crate) fn storage(&self) -> &Arc<Vec<Bf16>> {
        &self.data
    }

    /// `out = a × W` for `a` a dense `(m × k)` activation block, written
    /// into caller-owned scratch (every element overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k` or `out.len() != m * n`.
    pub fn matmul_into(&self, a: &[f32], m: usize, out: &mut [f32]) {
        assert_eq!(a.len(), m * self.k, "activation shape");
        assert_eq!(out.len(), m * self.n, "output shape");
        self.gemm_strip(a, m, 0, self.n, self.n, out);
    }

    /// Column strip `col_lo..col_lo + width` of the product (see
    /// [`gemm_panels`]).
    // Deliberately unprofiled: every caller is already inside a named
    // scope (`qkv_gemm`/`out_proj_gemm`/`ffn`/`logits` serially,
    // `pool_gemm_job` on pool workers), and a scope here would double the
    // bracket count on the hottest path in the engine — see the < 3%
    // overhead budget in `distserve_prof`'s module docs.
    pub(crate) fn gemm_strip(
        &self,
        a: &[f32],
        m: usize,
        col_lo: usize,
        width: usize,
        stride: usize,
        out: &mut [f32],
    ) {
        gemm_panels(
            &self.data, self.k, self.n, None, a, m, col_lo, width, stride, out,
        );
    }
}

/// The panel walk behind every GEMM, at either precision: `out[m ×
/// stride] = a[m × k] × W[:, col_lo..col_lo + width]` for `W` a
/// panel-major `(k × n)` weight whose elements widen to f32, each output
/// column multiplied once at the end by its entry of `scales` (int8) if
/// there are any. Each output row starts at a multiple of `stride ≥
/// width`: with `stride == width` this is a dense write, and the pool
/// uses a wider `stride` to let the calling thread write its strip
/// straight into the full-width destination while each worker fills its
/// own narrow buffer.
///
/// Panels are the outer loop and `MR`-row bands the inner one. Every
/// output element is overwritten (no pre-zeroing needed) and accumulates
/// over `k` ascending in a single accumulator — bit-identical to the
/// reference matmul, and independent of the strip it lands in.
///
/// # Panics
///
/// Panics unless the strip starts on a panel boundary and ends on one or
/// at `n`.
#[allow(clippy::too_many_arguments)]
fn gemm_panels<W: Copy + Into<f32>>(
    w: &[W],
    k: usize,
    n: usize,
    scales: Option<&[f32]>,
    a: &[f32],
    m: usize,
    col_lo: usize,
    width: usize,
    stride: usize,
    out: &mut [f32],
) {
    assert!(
        col_lo.is_multiple_of(NR) && (width.is_multiple_of(NR) || col_lo + width == n),
        "strip {col_lo}+{width} of {n} columns is not on panel boundaries"
    );
    for lo in (col_lo..col_lo + width).step_by(NR) {
        let pw = NR.min(n - lo);
        let panel = &w[lo * k..][..k * pw];
        let scale = scales.map(|s| &s[lo..lo + pw]);
        let out = &mut out[lo - col_lo..];
        if pw < NR {
            narrow_panel(panel, pw, scale, a, m, k, stride, out);
            continue;
        }
        let (panel, _) = panel.as_chunks::<NR>();
        let mut i = 0;
        while i < m {
            // Monomorphize the band height so the accumulator block is a
            // fixed-size array the compiler keeps in registers.
            match m - i {
                1 => tile::<W, 1>(panel, scale, a, i, stride, out),
                2 => tile::<W, 2>(panel, scale, a, i, stride, out),
                3 => tile::<W, 3>(panel, scale, a, i, stride, out),
                4 => tile::<W, 4>(panel, scale, a, i, stride, out),
                5 => tile::<W, 5>(panel, scale, a, i, stride, out),
                _ => tile::<W, MR>(panel, scale, a, i, stride, out),
            }
            i += (m - i).min(MR);
        }
    }
}

/// One `MB`-row band of one full panel. The `MB × NR` accumulator tile
/// lives in registers across the whole k-loop; each panel row is loaded
/// and widened once per k step and reused by all `MB` activation rows.
// `r` deliberately indexes both the activation rows and the
// accumulators; an iterator over one would hide the shared induction
// variable.
#[allow(clippy::needless_range_loop)]
fn tile<W: Copy + Into<f32>, const MB: usize>(
    panel: &[[W; NR]],
    scale: Option<&[f32]>,
    a: &[f32],
    i: usize,
    stride: usize,
    out: &mut [f32],
) {
    let depth = panel.len();
    let a_rows: [&[f32]; MB] = core::array::from_fn(|r| &a[(i + r) * depth..][..depth]);
    let mut acc = [[0.0f32; NR]; MB];
    for (kk, seg) in panel.iter().enumerate() {
        let w: [f32; NR] = core::array::from_fn(|l| seg[l].into());
        for r in 0..MB {
            let av = a_rows[r][kk];
            for (acc_l, &w_l) in acc[r].iter_mut().zip(&w) {
                *acc_l += av * w_l;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let dst = &mut out[(i + r) * stride..][..NR];
        match scale {
            None => dst.copy_from_slice(acc_row),
            Some(s) => {
                // A fixed width keeps this loop unrolled; a variable one
                // makes LLVM keep the accumulators in memory and store
                // all of them on every k step.
                let s: &[f32; NR] = s.try_into().expect("NR-wide scale segment");
                for ((d, &v), &s) in dst.iter_mut().zip(acc_row).zip(s) {
                    *d = v * s;
                }
            }
        }
    }
}

/// The last panel when it is narrower than `NR`: one scalar accumulator
/// per output, in the same order as [`tile`].
#[allow(clippy::too_many_arguments)]
fn narrow_panel<W: Copy + Into<f32>>(
    panel: &[W],
    pw: usize,
    scale: Option<&[f32]>,
    a: &[f32],
    m: usize,
    k: usize,
    stride: usize,
    out: &mut [f32],
) {
    for r in 0..m {
        let a_row = &a[r * k..][..k];
        for c in 0..pw {
            let mut acc = 0.0f32;
            for (&av, seg) in a_row.iter().zip(panel.chunks_exact(pw)) {
                acc += av * seg[c].into();
            }
            out[r * stride + c] = scale.map_or(acc, |s| acc * s[c]);
        }
    }
}

/// A weight matrix quantized to int8 with one scale per *output channel*
/// (column): `s_j = max_k |w[k][j]| / 127`, `q[k][j] =
/// round(w[k][j] / s_j)` clamped to `[-127, 127]`. The codes keep the
/// panel layout of [`PackedMatrix`], and the same panel walk accumulates
/// `Σ_k a[k] · f32(q[k][j])` in f32 and multiplies by `s_j` once at the
/// end — dequantization happens in-register, never as a materialized f32
/// copy of the weights.
///
/// # Error bound
///
/// Rounding puts each reconstructed weight within half a step of the
/// original: `|w[k][j] − s_j·q[k][j]| ≤ s_j / 2`. An output column
/// therefore satisfies
///
/// ```text
/// |y_int8[j] − y_f32[j]| ≤ (s_j / 2) · ‖a‖₁ + ε_acc
///                        = (max_k |w[k][j]| / 254) · ‖a‖₁ + ε_acc
/// ```
///
/// where `‖a‖₁` is the L1 norm of the activation row and `ε_acc` covers
/// f32 accumulation reassociation (a few ULPs of the running sum; the
/// tests budget 1/64 of the rounding term for it). The proptest
/// `int8_error_within_documented_bound` pins exactly this bound.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    /// Input dimension (rows of the logical weight).
    pub k: usize,
    /// Output dimension (columns of the logical weight).
    pub n: usize,
    /// Panel-major int8 codes, the same layout as [`PackedMatrix`].
    data: Arc<Vec<i8>>,
    /// Per-output-channel scales, `n` long.
    scales: Arc<Vec<f32>>,
}

impl QuantMatrix {
    /// Quantizes a `(k × n)` weight in either layout, f32 or bf16.
    /// Deterministic: `round` half-away-from-zero, scales derived only
    /// from the column maxima.
    #[must_use]
    pub fn quantize<W: Copy + Into<f32>>(w: &Matrix<W>) -> Self {
        let w = w.to_panels();
        let mut scales = vec![0.0f32; w.cols];
        for (lo, pw, panel) in w.panels() {
            for row in panel.chunks_exact(pw) {
                for (s, &v) in scales[lo..lo + pw].iter_mut().zip(row) {
                    *s = s.max(v.into().abs());
                }
            }
        }
        for s in &mut scales {
            *s /= 127.0;
        }
        let mut data = Vec::with_capacity(w.data.len());
        for (lo, pw, panel) in w.panels() {
            for row in panel.chunks_exact(pw) {
                data.extend(row.iter().zip(&scales[lo..lo + pw]).map(|(&v, &s)| {
                    if s > 0.0 {
                        (v.into() / s).round().clamp(-127.0, 127.0) as i8
                    } else {
                        0
                    }
                }));
            }
        }
        QuantMatrix {
            k: w.rows,
            n: w.cols,
            data: Arc::new(data),
            scales: Arc::new(scales),
        }
    }

    /// The scale of output channel `j`.
    #[must_use]
    pub fn scale(&self, j: usize) -> f32 {
        self.scales[j]
    }

    /// Reconstructs the dequantized weights (`s_j · q[k][j]`), row-major
    /// — test and inspection helper, never on the hot path.
    #[must_use]
    pub fn dequantized(&self) -> Matrix {
        let codes = Matrix::from_panels(self.k, self.n, NR, self.data.to_vec());
        let mut out = Vec::with_capacity(self.k * self.n);
        for kk in 0..self.k {
            out.extend((0..self.n).map(|j| self.scales[j] * f32::from(codes.at(kk, j))));
        }
        Matrix::from_vec(self.k, self.n, out)
    }

    /// Dense product into caller scratch, mirroring
    /// [`PackedMatrix::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k` or `out.len() != m * n`.
    pub fn matmul_into(&self, a: &[f32], m: usize, out: &mut [f32]) {
        assert_eq!(a.len(), m * self.k, "activation shape");
        assert_eq!(out.len(), m * self.n, "output shape");
        self.gemm_strip(a, m, 0, self.n, self.n, out);
    }

    /// Strip kernel with the same contract as
    /// [`PackedMatrix::gemm_strip`], accumulating over int8 codes and
    /// applying the per-channel scale once per output element.
    pub(crate) fn gemm_strip(
        &self,
        a: &[f32],
        m: usize,
        col_lo: usize,
        width: usize,
        stride: usize,
        out: &mut [f32],
    ) {
        let _prof = distserve_prof::scope("gemm_int8");
        let scales = Some(self.scales.as_slice());
        gemm_panels(
            &self.data, self.k, self.n, scales, a, m, col_lo, width, stride, out,
        );
    }
}

/// A GEMM operand the engine can dispatch without caring which precision
/// tier backs it: both variants share the strip-kernel contract, so the
/// worker pool schedules them identically.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// bf16 packed weights under f32 arithmetic (the default tier,
    /// bit-exact against the reference tier).
    F32(PackedMatrix),
    /// Int8 per-channel quantized weights (bounded-error tier).
    Int8(QuantMatrix),
}

impl Kernel {
    /// Input dimension.
    #[must_use]
    pub fn k(&self) -> usize {
        match self {
            Kernel::F32(p) => p.k,
            Kernel::Int8(q) => q.k,
        }
    }

    /// Output dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        match self {
            Kernel::F32(p) => p.n,
            Kernel::Int8(q) => q.n,
        }
    }

    /// Strip kernel dispatch (see [`PackedMatrix::gemm_strip`]).
    pub(crate) fn gemm_strip(
        &self,
        a: &[f32],
        m: usize,
        col_lo: usize,
        width: usize,
        stride: usize,
        out: &mut [f32],
    ) {
        match self {
            Kernel::F32(p) => p.gemm_strip(a, m, col_lo, width, stride, out),
            Kernel::Int8(q) => q.gemm_strip(a, m, col_lo, width, stride, out),
        }
    }
}

/// Adds `bias` to every row of `m` in place.
///
/// # Panics
///
/// Panics if `bias.len() != m.cols`.
pub fn add_bias(m: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), m.cols, "bias length");
    for r in 0..m.rows {
        for (v, b) in m.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// ReLU in place (OPT's FFN activation).
pub fn relu(m: &mut Matrix) {
    relu_slice(Arc::make_mut(&mut m.data).as_mut_slice());
}

/// ReLU in place over a raw slice (fast path).
pub fn relu_slice(xs: &mut [f32]) {
    for v in xs {
        *v = v.max(0.0);
    }
}

/// LayerNorm over the last dimension with learned scale and shift
/// (reference tier: allocating).
///
/// # Panics
///
/// Panics if `scale` or `shift` length differs from `m.cols`.
#[must_use]
pub fn layer_norm(m: &Matrix, scale: &[f32], shift: &[f32]) -> Matrix {
    let mut out = vec![0.0; m.rows * m.cols];
    layer_norm_into(&m.data, m.rows, scale, shift, &mut out);
    Matrix::from_vec(m.rows, m.cols, out)
}

/// LayerNorm of an `(m × cols)` activation block into caller scratch.
/// Both tiers flow through this one implementation (the reference tier
/// via [`layer_norm`]), so batched and token-at-a-time outputs stay
/// bit-identical to each other by construction.
///
/// # Panics
///
/// Panics if buffer lengths disagree with `m * scale.len()`.
pub fn layer_norm_into(x: &[f32], m: usize, scale: &[f32], shift: &[f32], out: &mut [f32]) {
    let cols = scale.len();
    assert_eq!(shift.len(), cols, "shift length");
    assert_eq!(x.len(), m * cols, "input shape");
    assert_eq!(out.len(), m * cols, "output shape");
    for r in 0..m {
        let row = &x[r * cols..(r + 1) * cols];
        let mean = sum_lanes(row, |v| v) / cols as f32;
        let var = sum_lanes(row, |v| (v - mean) * (v - mean)) / cols as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        let out_row = &mut out[r * cols..(r + 1) * cols];
        for c in 0..cols {
            out_row[c] = (row[c] - mean) * inv * scale[c] + shift[c];
        }
    }
}

/// Deterministic vectorizable reduction: `f` maps each element, and the
/// mapped values accumulate into 8 independent lanes (element `i` into
/// lane `i % 8`), which fold left-to-right at the end, followed by the
/// tail. The fixed lane split keeps results identical across call sites
/// and runs while the strictly serial left-fold cannot vectorize.
fn sum_lanes(xs: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let mut lanes = [0.0f32; 8];
    let n = xs.len() / 8 * 8;
    for chunk in xs[..n].chunks_exact(8) {
        for (l, &v) in lanes.iter_mut().zip(chunk) {
            *l += f(v);
        }
    }
    let mut total = 0.0;
    for &l in &lanes {
        total += l;
    }
    for &v in &xs[n..] {
        total += f(v);
    }
    total
}

/// Fast `e^x` for softmax inputs (`x ≤ 0` after the max shift): splits
/// `2^(x·log2 e)` into integer and fractional powers, evaluates the
/// fractional part with a degree-6 polynomial, and assembles the integer
/// part through the IEEE-754 exponent field. Relative error ≈ 2e-6 —
/// invisible after normalization — and branch-free, so the softmax loop
/// auto-vectorizes where `f32::exp` forces a scalar libm call per score.
/// Both compute tiers share this function, keeping them bit-identical.
#[inline]
pub(crate) fn exp_fast(x: f32) -> f32 {
    // Clamp keeps the exponent assembly in range; e^(z·ln2) for z below
    // -126 is zero at f32 precision anyway.
    let z = (x * std::f32::consts::LOG2_E).max(-126.0);
    let zf = z.floor();
    let f = z - zf;
    // 2^f on [0, 1): Taylor coefficients of e^(f·ln2) through degree 6,
    // i.e. ln2^i / i! — the leading one is exactly LN_2.
    let p = 1.0
        + f * (std::f32::consts::LN_2
            + f * (0.240_226_5
                + f * (0.055_504_11
                    + f * (0.009_618_13 + f * (0.001_333_36 + f * 0.000_154_035)))));
    let scale = f32::from_bits(((zf as i32 + 127) as u32) << 23);
    scale * p
}

/// Numerically stable softmax in place over a slice.
pub fn softmax(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    // Exponentiate in a pure map loop (no serial reduction mixed in, so
    // the whole `exp_fast` body vectorizes), then sum the stored values
    // in the same element order the fused loop would have used.
    for v in xs.iter_mut() {
        *v = exp_fast(*v - max);
    }
    let mut sum = 0.0;
    for &v in xs.iter() {
        sum += v;
    }
    for v in xs.iter_mut() {
        *v /= sum;
    }
}

/// Index of the maximum element (greedy sampling), ties to the lowest
/// index for determinism.
#[must_use]
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(*c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    fn test_weight(k: usize, n: usize) -> Matrix {
        Matrix::from_vec(
            k,
            n,
            (0..k * n)
                .map(|i| ((i * 37 + 11) % 97) as f32 * 0.03 - 1.4)
                .collect(),
        )
    }

    /// [`test_weight`] in its stored form, each value rounded to bf16.
    fn test_bf16_weight(k: usize, n: usize) -> Matrix<Bf16> {
        test_weight(k, n).to_bf16()
    }

    fn test_act(m: usize, k: usize) -> Matrix {
        Matrix::from_vec(
            m,
            k,
            (0..m * k)
                .map(|i| ((i * 53 + 5) % 89) as f32 * 0.021 - 0.9)
                .collect(),
        )
    }

    #[test]
    fn packed_matmul_bit_matches_reference() {
        // The fast kernel must reproduce the reference matmul exactly —
        // same multiply-add order per output element.
        for (m, k, n) in [(1, 8, 5), (3, 32, 96), (16, 64, 192), (7, 100, 513)] {
            let a = test_act(m, k);
            let b = test_bf16_weight(k, n);
            let reference = a.matmul(&b);
            let packed = PackedMatrix::pack(&b);
            let mut out = vec![0.0; m * n];
            packed.matmul_into(&a.data, m, &mut out);
            assert_eq!(out, *reference.data, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn packed_matmul_overwrites_dirty_scratch() {
        let a = test_act(2, 16);
        let b = test_bf16_weight(16, 24);
        let packed = PackedMatrix::pack(&b);
        let mut clean = vec![0.0; 2 * 24];
        packed.matmul_into(&a.data, 2, &mut clean);
        let mut dirty = vec![123.0; 2 * 24];
        packed.matmul_into(&a.data, 2, &mut dirty);
        assert_eq!(clean, dirty);
    }

    #[test]
    fn bias_and_relu() {
        let mut m = Matrix::from_vec(1, 3, vec![-1.0, 0.5, 2.0]);
        add_bias(&mut m, &[0.5, 0.5, 0.5]);
        relu(&mut m);
        assert_eq!(*m.data, vec![0.0, 1.0, 2.5]);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let out = layer_norm(&m, &[1.0; 4], &[0.0; 4]);
        let mean: f32 = out.data.iter().sum::<f32>() / 4.0;
        let var: f32 = out.data.iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_into_matches_reference_batch() {
        let m = test_act(5, 12);
        let scale: Vec<f32> = (0..12).map(|i| 1.0 + i as f32 * 0.01).collect();
        let shift: Vec<f32> = (0..12).map(|i| i as f32 * 0.005 - 0.02).collect();
        let reference = layer_norm(&m, &scale, &shift);
        let mut out = vec![7.0; 5 * 12];
        layer_norm_into(&m.data, 5, &scale, &shift, &mut out);
        assert_eq!(out, *reference.data);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut xs = vec![1.0, 3.0, 2.0];
        softmax(&mut xs);
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(xs[1] > xs[2] && xs[2] > xs[0]);
        // Stability with large magnitudes.
        let mut big = vec![1000.0, 1001.0];
        softmax(&mut big);
        assert!(big.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fast_exp_tracks_libm_exp() {
        // Softmax inputs after the max shift: (-inf, 0]. The approximation
        // must stay within ~1e-5 relative everywhere the result matters.
        for i in 0..2000 {
            let x = -(i as f32) * 0.01; // 0 down to -20
            let got = exp_fast(x);
            let want = x.exp();
            assert!(
                (got - want).abs() <= want * 2e-5 + 1e-12,
                "exp({x}): got {got}, want {want}"
            );
        }
        assert_eq!(exp_fast(0.0), 1.0);
        // Clamped underflow floors at 2^-126 — vanishing after the
        // softmax normalization divide.
        assert!(exp_fast(-1000.0) <= f32::MIN_POSITIVE);
    }

    #[test]
    fn softmax_close_to_libm_softmax() {
        let xs: Vec<f32> = (0..64)
            .map(|i| ((i * 29 + 3) % 23) as f32 * 0.37 - 4.0)
            .collect();
        let mut fast = xs.clone();
        softmax(&mut fast);
        let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exact: Vec<f32> = xs.iter().map(|v| (v - max).exp()).collect();
        let sum: f32 = exact.iter().sum();
        for (f, e) in fast.iter().zip(&exact) {
            assert!((f - e / sum).abs() < 1e-5);
        }
    }

    #[test]
    fn gemm_strip_stride_matches_dense() {
        // Writing a column strip into a wider destination (the worker-
        // pool main-lane path) must produce the same bits as the dense
        // product restricted to that strip.
        // Strips start on panel boundaries: one full panel in the middle,
        // and a full panel plus the narrow last one.
        let (m, k, n) = (5, 40, 80);
        let a = test_act(m, k);
        let b = test_bf16_weight(k, n);
        let packed = PackedMatrix::pack(&b);
        let mut dense = vec![0.0; m * n];
        packed.matmul_into(&a.data, m, &mut dense);
        for (lo, width) in [(32, 32), (32, 48)] {
            let mut strided = vec![99.0f32; m * n];
            packed.gemm_strip(&a.data, m, lo, width, n, &mut strided);
            for r in 0..m {
                // The strip lands at the *start* of each stride-wide row.
                assert_eq!(
                    &dense[r * n + lo..r * n + lo + width],
                    &strided[r * n..r * n + width]
                );
                // Everything past the strip is untouched.
                assert!(strided[r * n + width..(r + 1) * n]
                    .iter()
                    .all(|&v| v == 99.0));
            }
        }
    }

    #[test]
    fn int8_quantization_roundtrip_bound() {
        // Every reconstructed weight sits within half a quantization step
        // of the original.
        let w = test_weight(24, 33);
        let q = QuantMatrix::quantize(&w);
        let deq = q.dequantized();
        for j in 0..w.cols {
            let s = q.scale(j);
            for kk in 0..w.rows {
                let err = (w.row(kk)[j] - deq.row(kk)[j]).abs();
                assert!(
                    err <= s * 0.5 + 1e-7,
                    "col {j} row {kk}: err {err} > s/2 {s}"
                );
            }
        }
    }

    #[test]
    fn int8_matmul_within_documented_bound() {
        let (m, k, n) = (4, 64, 50);
        let a = test_act(m, k);
        let w = test_weight(k, n);
        let q = QuantMatrix::quantize(&w);
        let reference = a.matmul(&w);
        let mut out = vec![0.0; m * n];
        q.matmul_into(&a.data, m, &mut out);
        for r in 0..m {
            let a1: f32 = a.row(r).iter().map(|v| v.abs()).sum();
            for j in 0..n {
                let bound = q.scale(j) * 0.5 * a1 * (1.0 + 1.0 / 64.0) + 1e-6;
                let err = (out[r * n + j] - reference.row(r)[j]).abs();
                assert!(err <= bound, "row {r} col {j}: err {err} > bound {bound}");
            }
        }
    }

    #[test]
    fn int8_matches_dequantized_reference_exactly_in_association() {
        // The int8 kernel computes (Σ a·q)·s; the dequantized reference
        // computes Σ a·(s·q). Not bit-equal in general, but close — and
        // the int8 kernel must be deterministic across strip splits.
        let (m, k, n) = (3, 32, 40);
        let a = test_act(m, k);
        let w = test_weight(k, n);
        let q = QuantMatrix::quantize(&w);
        let mut dense = vec![0.0; m * n];
        q.matmul_into(&a.data, m, &mut dense);
        // Split at the panel boundary, leaving a narrow last panel:
        // strips must reproduce the dense bits exactly.
        let split = 32;
        let mut strips = vec![0.0f32; m * n];
        q.gemm_strip(&a.data, m, 0, split, n, &mut strips);
        q.gemm_strip(&a.data, m, split, n - split, n, &mut strips[split..]);
        assert_eq!(dense, strips);
    }

    #[test]
    fn bf16_widen_then_round_is_identity_on_every_pattern() {
        for bits in 0..=u16::MAX {
            let x = Bf16::from_bits(bits).to_f32();
            let back = Bf16::from_f32(x);
            assert_eq!(back.to_bits(), bits, "pattern {bits:#06x}");
            if x.is_nan() {
                assert!(back.to_f32().is_nan(), "{bits:#06x} stays NaN");
                assert_eq!(back.to_f32().is_sign_negative(), x.is_sign_negative());
            }
        }
        // A NaN whose payload lies only in the dropped half stays a NaN
        // of the same sign rather than truncating to infinity.
        for bits in [0x7f80_0001u32, 0xff80_0001, 0x7fc0_0000, 0xffc0_0000] {
            let r = Bf16::from_f32(f32::from_bits(bits)).to_f32();
            assert!(r.is_nan(), "{bits:#010x}");
            assert_eq!(r.is_sign_negative(), bits >> 31 == 1, "{bits:#010x}");
        }
    }

    #[test]
    fn bf16_rounds_halfway_to_even_and_past_halfway_away_from_zero() {
        let round = |bits: u32| Bf16::from_f32(f32::from_bits(bits)).to_bits();
        // Exactly halfway: to the even neighbour, either sign.
        assert_eq!(round(0x3f80_8000), 0x3f80);
        assert_eq!(round(0x3f81_8000), 0x3f82);
        assert_eq!(round(0xbf80_8000), 0xbf80);
        assert_eq!(round(0xbf81_8000), 0xbf82);
        // Just past halfway: away from zero; just short: toward zero.
        assert_eq!(round(0x3f80_8001), 0x3f81);
        assert_eq!(round(0xbf80_8001), 0xbf81);
        assert_eq!(round(0x3f80_7fff), 0x3f80);
        assert_eq!(round(0xbf80_7fff), 0xbf80);
        // A carry out of the mantissa moves to the next binade.
        assert_eq!(round(0x3fff_8000), 0x4000);
        // Subnormals round like any other value.
        assert_eq!(round(0x0000_8001), 0x0001);
        assert_eq!(round(0x0000_8000), 0x0000);
    }

    #[test]
    fn bf16_overflow_rounds_to_infinity() {
        let max = Bf16::from_bits(0x7f7f).to_f32();
        assert_eq!(Bf16::from_f32(max).to_f32(), max);
        // Finite values at or past the midpoint between the largest bf16
        // and 2^128 round to infinity; the midpoint ties to the even
        // pattern, which is infinity's.
        for bits in [0x7f7f_8000u32, 0x7f7f_ffff] {
            let x = f32::from_bits(bits);
            assert!(x.is_finite() && x > max);
            assert_eq!(Bf16::from_f32(x).to_f32(), f32::INFINITY, "{bits:#010x}");
            assert_eq!(
                Bf16::from_f32(-x).to_f32(),
                f32::NEG_INFINITY,
                "{bits:#010x}"
            );
        }
        assert_eq!(Bf16::from_f32(f32::MAX).to_f32(), f32::INFINITY);
        assert_eq!(Bf16::from_f32(f32::MIN).to_f32(), f32::NEG_INFINITY);
        // Just short of the midpoint stays finite.
        assert_eq!(Bf16::from_f32(f32::from_bits(0x7f7f_7fff)).to_f32(), max);
        assert_eq!(Bf16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
    }

    /// Round to nearest, ties to even, by comparing distances in f64
    /// (exact here: `x` and both candidates are f32 values within one bf16
    /// step of each other). The candidates are the truncation and the
    /// next pattern away from zero; past the largest finite bf16 that is
    /// infinity, which rounds as if it were 2^128.
    fn reference_bf16(x: f32) -> u16 {
        let lo = (x.to_bits() >> 16) as u16;
        let hi = lo + 1;
        let value = |b: u16| {
            if b & 0x7fff == 0x7f80 {
                2f64.powi(128).copysign(f64::from(x))
            } else {
                f64::from(Bf16::from_bits(b).to_f32())
            }
        };
        let x = f64::from(x);
        let (d_lo, d_hi) = ((x - value(lo)).abs(), (value(hi) - x).abs());
        if d_lo < d_hi || (d_lo == d_hi && lo & 1 == 0) {
            lo
        } else {
            hi
        }
    }

    #[test]
    fn bf16_from_f32_matches_f64_reference() {
        // A strided sweep: ~1.05M patterns spread over every exponent, both
        // signs, and (the stride is odd) every value of the dropped half.
        let mut checked = 0;
        for bits in (0..=u32::MAX).step_by(4093) {
            let x = f32::from_bits(bits);
            let got = Bf16::from_f32(x);
            if x.is_nan() {
                assert!(got.to_f32().is_nan(), "{bits:#010x}");
                assert_eq!(got.to_f32().is_sign_negative(), x.is_sign_negative());
            } else if x.is_infinite() {
                assert_eq!(got.to_f32(), x);
            } else {
                assert_eq!(got.to_bits(), reference_bf16(x), "{bits:#010x}");
            }
            checked += 1;
        }
        assert!(checked >= 1_000_000, "{checked} patterns");
    }

    #[test]
    fn argmax_ties_to_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 0.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
