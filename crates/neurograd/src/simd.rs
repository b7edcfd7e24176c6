//! Explicit f32 SIMD lanes with a bitwise-determinism contract.
//!
//! Every dense/sparse kernel in [`crate::kernels`] bottoms out in two
//! primitives defined here:
//!
//! - [`LaneEngine::axpy`] — `acc[j] += a * x[j]` across a row. This is
//!   element-wise: lane j only ever touches `acc[j]`, so the vector,
//!   portable and scalar paths produce the *same float per element* by
//!   construction.
//! - [`LaneEngine::dot`] — a lane-parallel dot product with a **fixed
//!   reduction shape**: [`LANES`] independent accumulators walk the
//!   inputs in `LANES`-wide chunks, are combined by the fixed pairwise
//!   tree in [`reduce_tree`], and the `len % LANES` remainder is then
//!   added one element at a time in index order. The scalar path
//!   ([`LaneEngine::Scalar`]) *emulates that exact sequence* rather than
//!   summing left-to-right, so `dot` is bitwise identical whether it ran
//!   on AVX2, on the portable auto-vectorized loop, or one element at a
//!   time.
//!
//! The contract, relied on by the kernel proptests and the serving
//! stack's parity pins: for the same inputs, every engine returns the
//! same bits. SIMD on/off (and lane width, and ISA) are performance
//! knobs, never numerics knobs.
//!
//! Why it holds on real hardware: the chunk loops contain only
//! independent multiplies and adds (no horizontal ops), rustc never
//! enables floating-point contraction, and the AVX2 clones only enable
//! `avx2` — **not** `fma` — so LLVM lowers `acc + a * x` to separate
//! `vmulps`/`vaddps`, matching scalar `f32` semantics exactly.
//!
//! SIMD can be disabled process-wide with [`set_enabled`] (the benches'
//! `--simd off`); kernels snapshot [`active`] once per call, so a kernel
//! invocation never mixes engines mid-row.
//!
//! Besides the two primitives, [`LaneEngine`] exposes **row-level fused
//! entry points** ([`LaneEngine::gemm_row`] and friends) that run a whole
//! output row's accumulation behind one ISA boundary.
//! `#[target_feature]` functions cannot be inlined into their callers, so
//! a per-`axpy` dispatch pays an opaque call every `k`-step — hoisting
//! the boundary to the row amortizes it across the whole inner loop.
//!
//! The accumulating rows (`gemm_row`, `gemm_row_strided`, `spmm_row`) are
//! **register-tiled**: a 32-column tile of the output row lives in a
//! local array — four vector registers — for the whole `k`/entry
//! reduction and is stored once at the end, instead of being loaded,
//! added to and stored back on every step. That removes the
//! store-to-load chain between steps, not any arithmetic: each output
//! element still starts at `0.0` and receives one `+ a · x` per step in
//! the same order with separate mul and add roundings, so the bits equal
//! one [`LaneEngine::axpy`] per step (the scalar twins still spell out
//! exactly that).

use std::sync::atomic::{AtomicBool, Ordering};

/// Lane count of the portable chunk loops (f32 × 8 = 256 bits, one AVX2
/// register). Fixed — results are defined in terms of this width, so it
/// never varies with the host ISA.
pub const LANES: usize = 8;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Process-wide SIMD switch. `false` routes every kernel through the
/// scalar lane-emulation path (same bits, element-at-a-time).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the lane engines are enabled (default: yes).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The fixed lane width the numerics are defined in terms of.
pub fn lane_width() -> usize {
    LANES
}

/// Which implementation a kernel invocation will run its inner loops on.
///
/// Snapshot once per kernel call via [`active`] and reuse for every row,
/// so a concurrent [`set_enabled`] flip can't mix engines inside one
/// output (harmless for bits, confusing for profiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneEngine {
    /// `#[target_feature(enable = "avx2")]` clones of the portable
    /// loops; selected only after runtime detection on x86-64.
    Avx2,
    /// The portable `LANES`-wide chunk loops at the baseline target ISA
    /// (LLVM auto-vectorizes the fixed-width inner loops).
    Portable,
    /// Scalar emulation of the lane schedule — identical float sequence,
    /// one element at a time. Used when SIMD is switched off, and as the
    /// reference twin in the bitwise proptests.
    Scalar,
}

/// The engine the current process/ISA/switch state selects.
pub fn active() -> LaneEngine {
    if !enabled() {
        return LaneEngine::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return LaneEngine::Avx2;
        }
    }
    LaneEngine::Portable
}

/// One human-readable line describing the lane configuration, printed by
/// the benches next to the host-parallelism line so artifacts from
/// different machines stay interpretable.
pub fn isa_report() -> String {
    let engine = match active() {
        LaneEngine::Avx2 => "avx2 (runtime-detected)",
        LaneEngine::Portable => "portable (baseline ISA, auto-vectorized)",
        LaneEngine::Scalar => "scalar lane emulation (simd off)",
    };
    format!(
        "simd: {} lanes={} arch={} enabled={}",
        engine,
        LANES,
        std::env::consts::ARCH,
        enabled()
    )
}

/// The fixed pairwise reduction tree over the `LANES` accumulators:
/// `(a0+a4)+(a2+a6)` + `(a1+a5)+(a3+a7)` — the shape AVX2's natural
/// 8→4→2→1 halving produces. Every engine funnels its accumulators
/// through this exact tree.
#[inline(always)]
pub fn reduce_tree(acc: [f32; LANES]) -> f32 {
    let s = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    let t = [s[0] + s[2], s[1] + s[3]];
    t[0] + t[1]
}

/// Portable lane loop for `acc[j] += a * x[j]`.
#[inline(always)]
fn axpy_lanes(acc: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(acc.len(), x.len());
    let mut ai = acc.chunks_exact_mut(LANES);
    let mut xi = x.chunks_exact(LANES);
    for (o, v) in (&mut ai).zip(&mut xi) {
        for l in 0..LANES {
            o[l] += a * v[l];
        }
    }
    for (o, &v) in ai.into_remainder().iter_mut().zip(xi.remainder()) {
        *o += a * v;
    }
}

/// Scalar twin of [`axpy_lanes`]: element-wise op, so plain iteration
/// already produces the identical float per element.
#[inline(always)]
fn axpy_scalar(acc: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(acc.len(), x.len());
    for (o, &v) in acc.iter_mut().zip(x) {
        *o += a * v;
    }
}

/// Portable lane loop for the fixed-shape dot product.
#[inline(always)]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ai = a.chunks_exact(LANES);
    let mut bi = b.chunks_exact(LANES);
    for (av, bv) in (&mut ai).zip(&mut bi) {
        for l in 0..LANES {
            acc[l] += av[l] * bv[l];
        }
    }
    let mut total = reduce_tree(acc);
    for (&av, &bv) in ai.remainder().iter().zip(bi.remainder()) {
        total += av * bv;
    }
    total
}

/// Scalar twin of [`dot_lanes`]: walks the same `LANES` independent
/// accumulators in the same order, reduces through the same tree, then
/// adds the remainder in index order — the identical float sequence,
/// one element at a time.
#[inline(always)]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let chunks = n / LANES;
    let mut acc = [0.0f32; LANES];
    for c in 0..chunks {
        let base = c * LANES;
        for l in 0..LANES {
            acc[l] += a[base + l] * b[base + l];
        }
    }
    let mut total = reduce_tree(acc);
    for i in chunks * LANES..n {
        total += a[i] * b[i];
    }
    total
}

/// Output columns per register tile: four `LANES`-wide vectors.
const TILE: usize = 4 * LANES;

/// The register-tiled row kernel behind every accumulating row: `out =
/// Σ_s coef_s · src[row_s]` over `steps = (coef_s, row_s)` in order (rows
/// of `src` are `out.len()` wide), `out` overwritten. The row is cut into
/// [`TILE`]-, then `LANES`-, then 1-column tiles; each tile starts at
/// `0.0` in a local array, runs the whole reduction there and is written
/// once. Every element thus sees `0.0` then one `+ coef · x` per step —
/// the float sequence of one `axpy` per step, minus the store and reload
/// of the row between steps.
#[inline(always)]
fn accumulate_row_lanes(
    out: &mut [f32],
    src: &[f32],
    steps: impl Iterator<Item = (f32, usize)> + Clone,
) {
    let mut j = 0;
    while j + TILE <= out.len() {
        j = accumulate_tile::<TILE>(out, src, j, steps.clone());
    }
    while j + LANES <= out.len() {
        j = accumulate_tile::<LANES>(out, src, j, steps.clone());
    }
    while j < out.len() {
        j = accumulate_tile::<1>(out, src, j, steps.clone());
    }
}

/// The `W` columns of [`accumulate_row_lanes`] from `j`; returns `j + W`.
#[inline(always)]
fn accumulate_tile<const W: usize>(
    out: &mut [f32],
    src: &[f32],
    j: usize,
    steps: impl Iterator<Item = (f32, usize)>,
) -> usize {
    let n = out.len();
    let mut acc = [0.0f32; W];
    for (coef, row) in steps {
        let x: &[f32; W] = src[row * n + j..][..W].try_into().expect("tile width");
        for l in 0..W {
            acc[l] += coef * x[l];
        }
    }
    out[j..j + W].copy_from_slice(&acc);
    j + W
}

/// Portable row kernel: `out = Σ_k a_row[k] · b[k]` (rows of `b` are
/// `out.len()` wide), `out` overwritten — the row-major GEMM inner pair,
/// accumulated in `k` order.
#[inline(always)]
fn gemm_row_lanes(out: &mut [f32], a_row: &[f32], b: &[f32]) {
    accumulate_row_lanes(out, b, a_row.iter().copied().zip(0..));
}

/// Scalar twin of [`gemm_row_lanes`] — same `k` order, element-wise adds.
#[inline(always)]
fn gemm_row_scalar(out: &mut [f32], a_row: &[f32], b: &[f32]) {
    out.fill(0.0);
    let n = out.len();
    for (k, &av) in a_row.iter().enumerate() {
        axpy_scalar(out, av, &b[k * n..(k + 1) * n]);
    }
}

/// Portable row kernel for the transposed-A product: coefficients are
/// read at stride `stride` from `a` (`a[k * stride]`, the k-th element of
/// one column of a row-major matrix).
#[inline(always)]
fn gemm_row_strided_lanes(out: &mut [f32], a: &[f32], stride: usize, b: &[f32]) {
    let k = if out.is_empty() { 0 } else { b.len() / out.len() };
    accumulate_row_lanes(out, b, (0..k).map(|kk| (a[kk * stride], kk)));
}

/// Scalar twin of [`gemm_row_strided_lanes`].
#[inline(always)]
fn gemm_row_strided_scalar(out: &mut [f32], a: &[f32], stride: usize, b: &[f32]) {
    out.fill(0.0);
    let n = out.len();
    let k = if n == 0 { 0 } else { b.len() / n };
    for kk in 0..k {
        axpy_scalar(out, a[kk * stride], &b[kk * n..(kk + 1) * n]);
    }
}

/// Portable row kernel for the B-transposed product: `out[j] =
/// dot(a_row, b[j])` where rows of `b` are `a_row.len()` wide.
#[inline(always)]
fn dot_row_lanes(out: &mut [f32], a_row: &[f32], b: &[f32]) {
    let k = a_row.len();
    for (j, o) in out.iter_mut().enumerate() {
        *o = dot_lanes(a_row, &b[j * k..(j + 1) * k]);
    }
}

/// Scalar twin of [`dot_row_lanes`] — every element runs the scalar
/// emulation of the fixed lane schedule.
#[inline(always)]
fn dot_row_scalar(out: &mut [f32], a_row: &[f32], b: &[f32]) {
    let k = a_row.len();
    for (j, o) in out.iter_mut().enumerate() {
        *o = dot_scalar(a_row, &b[j * k..(j + 1) * k]);
    }
}

/// Portable row kernel for one CSR row: `out = Σ_e vals[e] ·
/// x[cols[e]]`, `out` overwritten; entries in stored (structural) order.
#[inline(always)]
fn spmm_row_lanes(out: &mut [f32], cols: &[usize], vals: &[f32], x: &[f32]) {
    accumulate_row_lanes(out, x, vals.iter().copied().zip(cols.iter().copied()));
}

/// Scalar twin of [`spmm_row_lanes`].
#[inline(always)]
fn spmm_row_scalar(out: &mut [f32], cols: &[usize], vals: &[f32], x: &[f32]) {
    out.fill(0.0);
    let n = out.len();
    for (&c, &v) in cols.iter().zip(vals) {
        axpy_scalar(out, v, &x[c * n..(c + 1) * n]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    // AVX2 clones of the portable loops. Enabling only `avx2` (never
    // `fma`) keeps mul/add as separate rounding steps, so these are
    // bit-exact with the portable and scalar paths. The row-level clones
    // exist because `#[target_feature]` functions can't inline into
    // plain callers: wrapping the whole row loop keeps the opaque call
    // off the per-`axpy` hot path.
    #[target_feature(enable = "avx2")]
    pub(super) fn axpy(acc: &mut [f32], a: f32, x: &[f32]) {
        super::axpy_lanes(acc, a, x);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        super::dot_lanes(a, b)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_row(out: &mut [f32], a_row: &[f32], b: &[f32]) {
        super::gemm_row_lanes(out, a_row, b);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_row_strided(out: &mut [f32], a: &[f32], stride: usize, b: &[f32]) {
        super::gemm_row_strided_lanes(out, a, stride, b);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn dot_row(out: &mut [f32], a_row: &[f32], b: &[f32]) {
        super::dot_row_lanes(out, a_row, b);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn spmm_row(out: &mut [f32], cols: &[usize], vals: &[f32], x: &[f32]) {
        super::spmm_row_lanes(out, cols, vals, x);
    }
}

/// Expands to the x86-64 `unsafe` dispatch into an AVX2 clone, or the
/// portable fallback elsewhere.
macro_rules! avx2_call {
    ($name:ident ( $($arg:expr),* ), $fallback:ident) => {{
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active()` only yields `Avx2` after
        // `is_x86_feature_detected!("avx2")` succeeded in this process.
        unsafe { x86::$name($($arg),*) }
        #[cfg(not(target_arch = "x86_64"))]
        $fallback($($arg),*)
    }};
}

impl LaneEngine {
    /// `acc[j] += a * x[j]` for every j. Bitwise identical on every
    /// engine (element-wise, no reduction).
    #[inline]
    pub fn axpy(self, acc: &mut [f32], a: f32, x: &[f32]) {
        match self {
            LaneEngine::Avx2 => avx2_call!(axpy(acc, a, x), axpy_lanes),
            LaneEngine::Portable => axpy_lanes(acc, a, x),
            LaneEngine::Scalar => axpy_scalar(acc, a, x),
        }
    }

    /// Fixed-shape dot product of `a` and `b`. Bitwise identical on
    /// every engine (same lane schedule, same reduction tree).
    #[inline]
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            LaneEngine::Avx2 => avx2_call!(dot(a, b), dot_lanes),
            LaneEngine::Portable => dot_lanes(a, b),
            LaneEngine::Scalar => dot_scalar(a, b),
        }
    }

    /// One GEMM output row: `out = Σ_k a_row[k] · b[k]` (rows of `b` are
    /// `out.len()` wide), `out` overwritten, accumulation in `k` order —
    /// bitwise an [`LaneEngine::axpy`] per `k` on a zeroed row, run
    /// register-tiled behind one ISA boundary.
    #[inline]
    pub fn gemm_row(self, out: &mut [f32], a_row: &[f32], b: &[f32]) {
        match self {
            LaneEngine::Avx2 => avx2_call!(gemm_row(out, a_row, b), gemm_row_lanes),
            LaneEngine::Portable => gemm_row_lanes(out, a_row, b),
            LaneEngine::Scalar => gemm_row_scalar(out, a_row, b),
        }
    }

    /// [`LaneEngine::gemm_row`] with the coefficients read at stride
    /// `stride` from `a` (one column of a row-major matrix).
    #[inline]
    pub fn gemm_row_strided(self, out: &mut [f32], a: &[f32], stride: usize, b: &[f32]) {
        match self {
            LaneEngine::Avx2 => {
                avx2_call!(gemm_row_strided(out, a, stride, b), gemm_row_strided_lanes)
            }
            LaneEngine::Portable => gemm_row_strided_lanes(out, a, stride, b),
            LaneEngine::Scalar => gemm_row_strided_scalar(out, a, stride, b),
        }
    }

    /// One B-transposed GEMM output row: `out[j] = dot(a_row, b[j])`
    /// (rows of `b` are `a_row.len()` wide) — an [`LaneEngine::dot`] per
    /// element, fused behind one ISA boundary.
    #[inline]
    pub fn dot_row(self, out: &mut [f32], a_row: &[f32], b: &[f32]) {
        match self {
            LaneEngine::Avx2 => avx2_call!(dot_row(out, a_row, b), dot_row_lanes),
            LaneEngine::Portable => dot_row_lanes(out, a_row, b),
            LaneEngine::Scalar => dot_row_scalar(out, a_row, b),
        }
    }

    /// One CSR×dense output row: `out = Σ_e vals[e] · x[cols[e]]`, `out`
    /// overwritten, entries in stored order — bitwise an
    /// [`LaneEngine::axpy`] per structural entry, run register-tiled
    /// behind one ISA boundary.
    #[inline]
    pub fn spmm_row(self, out: &mut [f32], cols: &[usize], vals: &[f32], x: &[f32]) {
        match self {
            LaneEngine::Avx2 => avx2_call!(spmm_row(out, cols, vals, x), spmm_row_lanes),
            LaneEngine::Portable => spmm_row_lanes(out, cols, vals, x),
            LaneEngine::Scalar => spmm_row_scalar(out, cols, vals, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines() -> Vec<LaneEngine> {
        let mut e = vec![LaneEngine::Portable, LaneEngine::Scalar];
        if active() == LaneEngine::Avx2 {
            e.push(LaneEngine::Avx2);
        }
        e
    }

    fn data(n: usize, salt: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if i % 17 == 0 {
                    0.0
                } else {
                    ((i as f32) * 0.37 + salt as f32 * 0.11).sin() * 3.0
                }
            })
            .collect()
    }

    #[test]
    fn axpy_engines_agree_bitwise_across_lengths() {
        for n in [0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let x = data(n, 1);
            let base = data(n, 2);
            let mut want: Option<Vec<u32>> = None;
            for eng in engines() {
                let mut acc = base.clone();
                eng.axpy(&mut acc, 1.2345, &x);
                let bits: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
                match &want {
                    None => want = Some(bits),
                    Some(w) => assert_eq!(w, &bits, "axpy diverged at n={n} on {eng:?}"),
                }
            }
        }
    }

    #[test]
    fn dot_engines_agree_bitwise_across_lengths() {
        for n in [0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let a = data(n, 3);
            let b = data(n, 4);
            let mut want: Option<u32> = None;
            for eng in engines() {
                let got = eng.dot(&a, &b).to_bits();
                match want {
                    None => want = Some(got),
                    Some(w) => assert_eq!(w, got, "dot diverged at n={n} on {eng:?}"),
                }
            }
        }
    }

    #[test]
    fn dot_is_the_fixed_tree_not_sequential_sum() {
        // With 8 or more elements the lane schedule differs from a plain
        // left-to-right sum for generic data; this pins that the scalar
        // twin really emulates the tree rather than falling back to the
        // naive order.
        let a = data(24, 5);
        let b = data(24, 6);
        let mut acc = [0.0f32; LANES];
        for c in 0..3 {
            for l in 0..LANES {
                acc[l] += a[c * LANES + l] * b[c * LANES + l];
            }
        }
        let want = reduce_tree(acc).to_bits();
        assert_eq!(LaneEngine::Scalar.dot(&a, &b).to_bits(), want);
        assert_eq!(LaneEngine::Portable.dot(&a, &b).to_bits(), want);
    }

    #[test]
    fn isa_report_mentions_lane_width() {
        assert!(isa_report().contains("lanes=8"), "{}", isa_report());
    }

    #[test]
    fn disable_routes_to_scalar() {
        // `set_enabled` is process-global; restore before returning so
        // concurrently running tests only ever observe a bit-identical
        // engine swap (the whole point of the contract).
        set_enabled(false);
        assert_eq!(active(), LaneEngine::Scalar);
        set_enabled(true);
        assert_ne!(active(), LaneEngine::Scalar);
    }
}
