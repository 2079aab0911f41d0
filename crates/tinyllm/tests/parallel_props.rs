//! Property tests for the parallel compute path: threaded GEMM must be
//! bit-identical to single-threaded across arbitrary shapes and thread
//! counts, and int8 quantized GEMM must respect its documented error
//! bound.

use proptest::prelude::*;
use tinyllm::tensor::{Kernel, Matrix, PackedMatrix, QuantMatrix};
use tinyllm::WorkerPool;

/// Deterministic pseudo-random matrix data in roughly `[-1, 1)`.
fn fill(rows: usize, cols: usize, salt: u64) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            ((x >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any `(m, k, n)` shape at any thread count — including `n` not
    /// divisible by the 32-column weight panel — produces exactly the
    /// serial kernel's bits. The dispatch may split the N dimension into
    /// strips, but every output element's multiply-add chain is the
    /// same either way.
    #[test]
    fn threaded_gemm_bit_identical(
        m in 1usize..=16,
        k in 1usize..=96,
        n in 1usize..=300,
        threads in 2usize..=8,
    ) {
        let a = fill(m, k, 0xA5A5);
        let w = Matrix::from_vec(k, n, fill(k, n, 0x5A5A)).to_bf16();
        let kern = Kernel::F32(PackedMatrix::pack(&w));
        let mut serial = vec![0.0f32; m * n];
        WorkerPool::new(1).gemm(&kern, &a, m, &mut serial);
        let mut parallel = vec![0.0f32; m * n];
        WorkerPool::new(threads).gemm(&kern, &a, m, &mut parallel);
        prop_assert_eq!(serial, parallel);
    }

    /// The panel walk equals the reference matmul over the row-major
    /// weight bit for bit, at any lane count: every band height, full
    /// and narrow panels, and strips split across lanes.
    #[test]
    fn panel_gemm_equals_reference_matmul(
        m in 1usize..=40,
        k in 1usize..=300,
        n in 1usize..=200,
        lanes in 1usize..=5,
    ) {
        let a = fill(m, k, 0x0F0F);
        let rows = Matrix::from_vec(k, n, fill(k, n, 0xF0F0)).to_bf16();
        let reference = Matrix::from_vec(m, k, a.clone()).matmul(&rows);
        let panels = rows.to_panels();
        prop_assert_eq!(&Matrix::from_vec(m, k, a.clone()).matmul(&panels), &reference);
        let kern = Kernel::F32(PackedMatrix::pack(&panels));
        let mut out = vec![f32::NAN; m * n];
        WorkerPool::new(lanes).gemm(&kern, &a, m, &mut out);
        prop_assert_eq!(&out, &*reference.data);
    }

    /// Int8 GEMM stays within the documented per-channel bound:
    /// `|y_int8[j] − y_f32[j]| ≤ (s_j / 2) · ‖a‖₁ + ε_acc`, where `s_j`
    /// is column `j`'s quantization step (a small slack covers the f32
    /// accumulation term ε_acc).
    #[test]
    fn int8_gemm_within_documented_bound(
        m in 1usize..=4,
        k in 1usize..=64,
        n in 1usize..=80,
        salt in 0u64..1024,
    ) {
        let a = fill(m, k, salt);
        let w = Matrix::from_vec(k, n, fill(k, n, salt ^ 0xFFFF));
        let q = QuantMatrix::quantize(&w);
        let exact = Matrix::from_vec(m, k, a.clone()).matmul(&w);
        let mut approx = vec![0.0f32; m * n];
        q.matmul_into(&a, m, &mut approx);
        for r in 0..m {
            let a1: f32 = a[r * k..(r + 1) * k].iter().map(|x| x.abs()).sum();
            for j in 0..n {
                let err = (approx[r * n + j] - exact.data[r * n + j]).abs();
                let bound = q.scale(j) * 0.5 * a1 * (1.0 + 1.0 / 64.0) + 1e-6;
                prop_assert!(
                    err <= bound,
                    "row {} col {}: err {} > bound {}",
                    r, j, err, bound
                );
            }
        }
    }

    /// Int8 is deterministic: the threaded dispatch reproduces the
    /// serial int8 result bit for bit (the bound above is about f32 vs.
    /// int8, never about thread count).
    #[test]
    fn threaded_int8_gemm_bit_identical(
        m in 1usize..=8,
        k in 1usize..=64,
        n in 1usize..=200,
        threads in 2usize..=6,
    ) {
        let a = fill(m, k, 0x1234);
        let w = Matrix::from_vec(k, n, fill(k, n, 0x4321));
        let kern = Kernel::Int8(QuantMatrix::quantize(&w));
        let mut serial = vec![0.0f32; m * n];
        WorkerPool::new(1).gemm(&kern, &a, m, &mut serial);
        let mut parallel = vec![0.0f32; m * n];
        WorkerPool::new(threads).gemm(&kern, &a, m, &mut parallel);
        prop_assert_eq!(serial, parallel);
    }
}
