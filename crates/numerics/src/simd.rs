//! Explicit SIMD kernels behind a single runtime-detected dispatch point:
//! AVX2 on `x86_64`, NEON on `aarch64`, and a scalar twin of every
//! vectorized kernel everywhere else (and as the bit-compared oracle under
//! `ADC_FORCE_SCALAR=1`).
//!
//! # Which kernels are vectorized, and why
//!
//! A kernel keeps a vector path only where measured traffic reaches it
//! (call counters on the served-flow benchmark and `bench_eval`; see
//! EXPERIMENTS.md §14):
//!
//! - [`lane_assemble`], [`lane_factor_rows`], [`lane_fwd_all`] and
//!   [`lane_bwd_all`] — the batched complex sparse LU behind
//!   [`crate::sparse::CSparseLuBatch`] (TF det-sampling, AC sweeps, chain
//!   crossing searches). Callers pad batches with [`padded_lanes`]; on
//!   every measured workload each call ran full vector groups.
//! - [`rational_mags`] — batched `|H(jω)|` magnitude scans, millions of
//!   calls per cold served run.
//! - [`axpy_sub`] / [`caxpy_sub`] — the dense LU row updates of
//!   [`crate::linalg::Lu`]/[`crate::linalg::CLu`], whose rows run to
//!   tens of entries on the dense pipeline oracle.
//!
//! The stamp-replay scatters ([`scatter_add`], [`scatter_add_uniform`],
//! [`scatter_add_scaled`]) are scalar on every backend: scattered `+=` is
//! order-dependent and has no vector scatter instruction, and the scaled
//! replay is too rare to pay for a vector product path. The serial sparse
//! LU's elimination update is a plain loop in `sparse::factor_core`: its
//! factor rows are at most two entries long on every measured workload.
//!
//! # Bit-identity contract
//!
//! Optimizer trajectories must not fork between machines or backends, so
//! every kernel here produces **bit-identical** results to its scalar
//! counterpart:
//!
//! - No FMA anywhere. The scalar code rounds each multiply and each
//!   add/subtract separately; the SIMD kernels use elementwise
//!   multiply/add/subtract, which round identically per IEEE-754 lane.
//! - Complex products follow [`Complex`]'s exact expression order
//!   (`re·re − im·im`, `re·im + im·re`) using one rounding per `·`, `+`,
//!   `−` — `_mm256_addsub_pd` / a sign-flipped NEON add give the same
//!   single-rounded results as the scalar `−`/`+`.
//! - Accumulation through repeatable slots (the cap entries of
//!   [`lane_assemble`], the `e_target` schedule of [`lane_factor_rows`])
//!   runs in entry order and is vectorized only across independent lanes,
//!   so each lane performs exactly the serial sequence of rounded ops.
//! - Lane divisions use Smith's algorithm with operand blends on
//!   `|br| ≥ |bi|`, reproducing both branches of [`Complex`]'s `Div`.
//!
//! # Dispatch
//!
//! [`backend`] detects the instruction set once (`is_x86_feature_detected!`
//! cached in a [`OnceLock`]) and honours the `ADC_FORCE_SCALAR` environment
//! variable (any non-empty value other than `0` forces the scalar oracle) —
//! the CI leg that keeps the fallback path from rotting.

use crate::complex::Complex;
use std::sync::OnceLock;

/// Maximum lane count of the batched factor/solve workspaces
/// ([`crate::sparse::CSparseLuBatch`]): wide enough to fill an AVX2 vector
/// twice, small enough that a chain-sized factor batch stays cache-resident.
pub const MAX_LANES: usize = 8;

/// The instruction-set backend the kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar 4-lane loops — the bit-compared oracle.
    Scalar,
    /// AVX2 256-bit kernels (x86_64, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// NEON 128-bit kernels (aarch64 baseline).
    #[cfg(target_arch = "aarch64")]
    Neon,
}

static BACKEND: OnceLock<Backend> = OnceLock::new();

fn detect() -> Backend {
    if std::env::var_os("ADC_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    #[cfg(target_arch = "aarch64")]
    {
        return Backend::Neon;
    }
    #[allow(unreachable_code)]
    Backend::Scalar
}

/// The active backend, detected once per process (`ADC_FORCE_SCALAR`
/// respected at first use).
#[inline]
pub fn backend() -> Backend {
    *BACKEND.get_or_init(detect)
}

/// Human-readable backend name (benchmark/CI reporting).
pub fn backend_name() -> &'static str {
    match backend() {
        Backend::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => "avx2",
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => "neon",
    }
}

/// Lane count a `k`-sample batch should be padded to (by duplicating a
/// sample) so the batched row kernels dispatch to full vector groups
/// instead of the scalar fallback. Lanes compute independently, so
/// padding never changes a real lane's bits. Returns `k` unchanged when
/// padding would not pay: tiny batches (`k < 3`) are cheaper scalar, and
/// the scalar backend gains nothing from alignment.
pub fn padded_lanes(k: usize) -> usize {
    debug_assert!((1..=MAX_LANES).contains(&k));
    if k < 3 {
        return k;
    }
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => k.next_multiple_of(4).min(MAX_LANES),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => k.next_multiple_of(2).min(MAX_LANES),
        _ => k,
    }
}

// ---------------------------------------------------------------------------
// Scattered stamp replay.
// ---------------------------------------------------------------------------

/// Accumulates `vals[k]` into `out[slots[k]]` for every `k`, in order —
/// the one shared scatter kernel behind `Matrix::scatter_add` and
/// `CsrMatrix::scatter_add`. Scattered `+=` with repeatable slots is
/// order-dependent and has no AVX2/NEON scatter instruction, so this runs
/// the scalar 4-lane loop on every backend; it exists here so the replay
/// shape lives in exactly one place.
///
/// # Panics
/// Panics if `slots` and `vals` differ in length or a slot is out of range.
pub fn scatter_add(out: &mut [f64], slots: &[usize], vals: &[f64]) {
    assert_eq!(slots.len(), vals.len(), "slot/value length mismatch");
    let mut s4 = slots.chunks_exact(4);
    let mut v4 = vals.chunks_exact(4);
    for (s, v) in (&mut s4).zip(&mut v4) {
        out[s[0]] += v[0];
        out[s[1]] += v[1];
        out[s[2]] += v[2];
        out[s[3]] += v[3];
    }
    for (&s, &v) in s4.remainder().iter().zip(v4.remainder()) {
        out[s] += v;
    }
}

/// Accumulates the constant `v` into every `out[slot]` (the g_min
/// node-diagonal replay), chunked like [`scatter_add`].
///
/// # Panics
/// Panics if a slot is out of range.
pub fn scatter_add_uniform(out: &mut [f64], slots: &[usize], v: f64) {
    let mut s4 = slots.chunks_exact(4);
    for s in &mut s4 {
        out[s[0]] += v;
        out[s[1]] += v;
        out[s[2]] += v;
        out[s[3]] += v;
    }
    for &s in s4.remainder() {
        out[s] += v;
    }
}

/// Accumulates `s · vals[k]` into `out[slots[k]]` for every `k`, in order
/// (slots may repeat) — the per-sample replay of `s`-scaled capacitive
/// entries behind `CCsrMatrix::scatter_add_scaled`. Scalar on every
/// backend: it runs once per serial complex factorization, at most a few
/// thousand times per benchmark run, too rare for a vector product path
/// to pay (EXPERIMENTS.md §14).
///
/// # Panics
/// Panics if `slots` and `vals` differ in length or a slot is out of range.
pub fn scatter_add_scaled(out: &mut [Complex], slots: &[usize], vals: &[f64], s: Complex) {
    assert_eq!(slots.len(), vals.len(), "slot/value length mismatch");
    for (&slot, &v) in slots.iter().zip(vals) {
        out[slot] += s * v;
    }
}

// ---------------------------------------------------------------------------
// Dense LU inner row updates.
// ---------------------------------------------------------------------------

/// `dst[j] -= f · src[j]` — the dense real LU row elimination.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_sub(dst: &mut [f64], src: &[f64], f: f64) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 => unsafe { avx2::axpy_sub(dst, src, f) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::axpy_sub(dst, src, f),
        Backend::Scalar => axpy_sub_scalar(dst, src, f),
    }
}

/// Scalar oracle for [`axpy_sub`].
pub fn axpy_sub_scalar(dst: &mut [f64], src: &[f64], f: f64) {
    for (d, &a) in dst.iter_mut().zip(src) {
        *d -= f * a;
    }
}

/// `dst[j] -= f · src[j]` (complex) — the dense complex LU row elimination.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn caxpy_sub(dst: &mut [Complex], src: &[Complex], f: Complex) {
    assert_eq!(dst.len(), src.len(), "length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 => unsafe { avx2::caxpy_sub(dst, src, f) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::caxpy_sub(dst, src, f),
        Backend::Scalar => caxpy_sub_scalar(dst, src, f),
    }
}

/// Scalar oracle for [`caxpy_sub`].
pub fn caxpy_sub_scalar(dst: &mut [Complex], src: &[Complex], f: Complex) {
    for (d, &a) in dst.iter_mut().zip(src) {
        *d -= f * a;
    }
}

// ---------------------------------------------------------------------------
// Batched (struct-of-arrays) complex sparse LU: one dispatch per whole
// assembly, factorization or substitution, so the lane vectors stay in
// registers across rows instead of paying a dispatch per nonzero.
//
// All offsets address the batch workspaces' position-major, lane-minor
// layout: lane `l` of factor position `p` lives at `p·lanes + l`.
// ---------------------------------------------------------------------------

/// Shared pivot acceptance test of the batched factor: fails a lane iff
/// the serial check `pivot.norm() < tol` would, using the cheap component
/// screen first (a component beyond `2·tol` proves the norm ≥ `tol`
/// without the hypot). Returns the failing lane's exact pivot magnitude.
#[inline]
fn pivot_fail(f_re: &[f64], f_im: &[f64], dp: usize, lanes: usize, tol: f64) -> Option<f64> {
    for l in 0..lanes {
        let (re, im) = (f_re[dp + l], f_im[dp + l]);
        if !(re.abs() > 2.0 * tol || im.abs() > 2.0 * tol) {
            let m = re.hypot(im);
            if m < tol {
                return Some(m);
            }
        }
    }
    None
}

/// Batched assembly of `Y(s_l) = base + s_l·C` into lane-strided factor
/// storage: broadcast `0.0 + base[k]` at scattered base positions,
/// explicit zeros at the fill-in positions, then the `s`-scaled cap
/// entries accumulated per lane in entry order — exactly the serial
/// `fill(ZERO)` + `+=` + `scatter_add_scaled` result per lane.
///
/// # Panics
/// Panics (via slice indexing) if the scatter maps and lane storage are
/// inconsistent or `s_re`/`s_im` are shorter than `lanes`.
#[allow(clippy::too_many_arguments)]
pub fn lane_assemble(
    f_re: &mut [f64],
    f_im: &mut [f64],
    base: &[Complex],
    scatter: &[usize],
    fill_pos: &[usize],
    cap_slots: &[usize],
    cap_vals: &[f64],
    s_re: &[f64],
    s_im: &[f64],
    lanes: usize,
) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 if lanes % 4 == 0 => unsafe {
            avx2::lane_assemble(
                f_re, f_im, base, scatter, fill_pos, cap_slots, cap_vals, s_re, s_im, lanes,
            )
        },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon if lanes % 2 == 0 => neon::lane_assemble(
            f_re, f_im, base, scatter, fill_pos, cap_slots, cap_vals, s_re, s_im, lanes,
        ),
        _ => lane_assemble_scalar(
            f_re, f_im, base, scatter, fill_pos, cap_slots, cap_vals, s_re, s_im, lanes,
        ),
    }
}

/// Scalar oracle for [`lane_assemble`].
#[allow(clippy::too_many_arguments)]
pub fn lane_assemble_scalar(
    f_re: &mut [f64],
    f_im: &mut [f64],
    base: &[Complex],
    scatter: &[usize],
    fill_pos: &[usize],
    cap_slots: &[usize],
    cap_vals: &[f64],
    s_re: &[f64],
    s_im: &[f64],
    lanes: usize,
) {
    for (k, &v) in base.iter().enumerate() {
        let p = scatter[k] * lanes;
        f_re[p..p + lanes].fill(0.0 + v.re);
        f_im[p..p + lanes].fill(0.0 + v.im);
    }
    for &fp in fill_pos {
        let p = fp * lanes;
        f_re[p..p + lanes].fill(0.0);
        f_im[p..p + lanes].fill(0.0);
    }
    for (&slot, &c) in cap_slots.iter().zip(cap_vals) {
        let p = scatter[slot] * lanes;
        for (d, &sr) in f_re[p..p + lanes].iter_mut().zip(&s_re[..lanes]) {
            *d += sr * c;
        }
        for (d, &si) in f_im[p..p + lanes].iter_mut().zip(&s_im[..lanes]) {
            *d += si * c;
        }
    }
}

/// Batched magnitudes `|num(jω)/den(jω)|` of a real-coefficient rational
/// function at `s = j·2π·f` for each frequency in `freqs_hz`, written to
/// `out`. Each lane reproduces the serial Horner evaluation, Smith
/// division (exact-zero denominators included) and `hypot` bit-for-bit,
/// so log-grid magnitude scans can batch points without perturbing the
/// crossing they find.
///
/// # Panics
/// Panics if `out` is shorter than `freqs_hz`.
pub fn rational_mags(num: &[f64], den: &[f64], freqs_hz: &[f64], out: &mut [f64]) {
    assert!(out.len() >= freqs_hz.len(), "output shorter than input");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 => unsafe { avx2::rational_mags(num, den, freqs_hz, out) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::rational_mags(num, den, freqs_hz, out),
        _ => rational_mags_scalar(num, den, freqs_hz, out),
    }
}

/// Scalar oracle for [`rational_mags`]: exactly the serial
/// `(num.eval_complex(jω) / den.eval_complex(jω)).norm()` per point.
pub fn rational_mags_scalar(num: &[f64], den: &[f64], freqs_hz: &[f64], out: &mut [f64]) {
    for (o, &f) in out.iter_mut().zip(freqs_hz) {
        let z = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
        let n = num.iter().rev().fold(Complex::ZERO, |acc, &c| acc * z + c);
        let d = den.iter().rev().fold(Complex::ZERO, |acc, &c| acc * z + c);
        *o = (n / d).norm();
    }
}

/// The complete batched up-looking elimination over every row, in place
/// in the factor storage via the precomputed elimination schedule
/// (`e_target` maps each update entry of an eliminating row `j` to its
/// position within the row being built — no scatter workspace, no copy
/// in/out), behind **one** dispatch. Returns the first `(step, pivot
/// magnitude)` failing the tolerance, deciding exactly as the serial
/// per-lane `norm() < tol` check would.
///
/// # Panics
/// Panics (via slice indexing) if the symbolic arrays and lane storage
/// are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn lane_factor_rows(
    f_re: &mut [f64],
    f_im: &mut [f64],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    e_target: &[usize],
    lanes: usize,
    tol: f64,
) -> Option<(usize, f64)> {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 if lanes % 4 == 0 => unsafe {
            avx2::lane_factor_rows(f_re, f_im, f_row_ptr, f_col, f_diag, e_target, lanes, tol)
        },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon if lanes % 2 == 0 => {
            neon::lane_factor_rows(f_re, f_im, f_row_ptr, f_col, f_diag, e_target, lanes, tol)
        }
        _ => lane_factor_rows_scalar(f_re, f_im, f_row_ptr, f_col, f_diag, e_target, lanes, tol),
    }
}

/// Scalar oracle for [`lane_factor_rows`].
#[allow(clippy::too_many_arguments)]
// `pos` walks a CSR span and is also needed as `pos * lanes`; an
// enumerate rewrite would obscure the indexing contract.
#[allow(clippy::needless_range_loop)]
pub fn lane_factor_rows_scalar(
    f_re: &mut [f64],
    f_im: &mut [f64],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    e_target: &[usize],
    lanes: usize,
    tol: f64,
) -> Option<(usize, f64)> {
    let n = f_diag.len();
    let mut cur = 0usize;
    for i in 0..n {
        for pos in f_row_ptr[i]..f_diag[i] {
            let j = f_col[pos];
            let (d, e) = (f_diag[j] + 1, f_row_ptr[j + 1]);
            let pm = pos * lanes;
            let dpm = f_diag[j] * lanes;
            // Multiplier lanes in place: exactly the scalar operator's
            // Smith division, stored where the L value lives.
            for l in 0..lanes {
                let q = Complex::new(f_re[pm + l], f_im[pm + l])
                    / Complex::new(f_re[dpm + l], f_im[dpm + l]);
                f_re[pm + l] = q.re;
                f_im[pm + l] = q.im;
            }
            for (q, &t) in (d..e).zip(&e_target[cur..cur + (e - d)]) {
                let qm = q * lanes;
                let tm = t * lanes;
                for l in 0..lanes {
                    let pr = f_re[pm + l] * f_re[qm + l] - f_im[pm + l] * f_im[qm + l];
                    let pi = f_re[pm + l] * f_im[qm + l] + f_im[pm + l] * f_re[qm + l];
                    f_re[tm + l] -= pr;
                    f_im[tm + l] -= pi;
                }
            }
            cur += e - d;
        }
        if let Some(pm) = pivot_fail(f_re, f_im, f_diag[i] * lanes, lanes, tol) {
            return Some((i, pm));
        }
    }
    None
}

/// The complete batched forward substitution (`L y = P_r b`, unit
/// diagonal) behind one dispatch: per row, `y[i]` starts at the broadcast
/// right-hand side and accumulates `−L_i[c] · y[c]` over the row's lower
/// entries.
///
/// # Panics
/// Panics (via slice indexing) if the symbolic arrays and lane storage
/// are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn lane_fwd_all(
    y_re: &mut [f64],
    y_im: &mut [f64],
    b: &[Complex],
    row_perm: &[usize],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 if lanes % 4 == 0 => unsafe {
            avx2::lane_fwd_all(
                y_re, y_im, b, row_perm, f_row_ptr, f_col, f_diag, f_re, f_im, lanes,
            )
        },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon if lanes % 2 == 0 => neon::lane_fwd_all(
            y_re, y_im, b, row_perm, f_row_ptr, f_col, f_diag, f_re, f_im, lanes,
        ),
        _ => lane_fwd_all_scalar(
            y_re, y_im, b, row_perm, f_row_ptr, f_col, f_diag, f_re, f_im, lanes,
        ),
    }
}

/// Scalar oracle for [`lane_fwd_all`].
#[allow(clippy::too_many_arguments)]
pub fn lane_fwd_all_scalar(
    y_re: &mut [f64],
    y_im: &mut [f64],
    b: &[Complex],
    row_perm: &[usize],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    for i in 0..f_diag.len() {
        let bv = b[row_perm[i]];
        let (start, d) = (f_row_ptr[i], f_diag[i]);
        lane_fwd_row_scalar(
            y_re,
            y_im,
            i * lanes,
            bv.re,
            bv.im,
            &f_col[start..d],
            start * lanes,
            f_re,
            f_im,
            lanes,
        );
    }
}

/// The complete batched back substitution (`U x' = y`) behind one
/// dispatch: per row, `y[i]` accumulates `−U_i[c] · y[c]` over the row's
/// upper entries, then is divided by the pivot `U_ii` per lane (Smith
/// division, bit-identical to [`Complex`]'s `Div`). Pivots passed the
/// factor's singularity check, so exact-zero divisors are unreachable.
///
/// # Panics
/// Panics (via slice indexing) if the symbolic arrays and lane storage
/// are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn lane_bwd_all(
    y_re: &mut [f64],
    y_im: &mut [f64],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Backend::Avx2` is only returned when AVX2 was detected.
        Backend::Avx2 if lanes % 4 == 0 => unsafe {
            avx2::lane_bwd_all(y_re, y_im, f_row_ptr, f_col, f_diag, f_re, f_im, lanes)
        },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon if lanes % 2 == 0 => {
            neon::lane_bwd_all(y_re, y_im, f_row_ptr, f_col, f_diag, f_re, f_im, lanes)
        }
        _ => lane_bwd_all_scalar(y_re, y_im, f_row_ptr, f_col, f_diag, f_re, f_im, lanes),
    }
}

/// Scalar oracle for [`lane_bwd_all`].
#[allow(clippy::too_many_arguments)]
pub fn lane_bwd_all_scalar(
    y_re: &mut [f64],
    y_im: &mut [f64],
    f_row_ptr: &[usize],
    f_col: &[usize],
    f_diag: &[usize],
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    for i in (0..f_diag.len()).rev() {
        let (d, e) = (f_diag[i], f_row_ptr[i + 1]);
        lane_bwd_row_scalar(
            y_re,
            y_im,
            i * lanes,
            &f_col[d + 1..e],
            (d + 1) * lanes,
            d * lanes,
            f_re,
            f_im,
            lanes,
        );
    }
}

/// One forward-substitution row of [`lane_fwd_all_scalar`]: `im` is
/// `i·lanes` in `y`, `p0` the offset of `cols[0]`'s values in `f`.
#[allow(clippy::too_many_arguments)]
fn lane_fwd_row_scalar(
    y_re: &mut [f64],
    y_im: &mut [f64],
    im: usize,
    b_re: f64,
    b_im: f64,
    cols: &[usize],
    p0: usize,
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    for l in 0..lanes {
        y_re[im + l] = b_re;
        y_im[im + l] = b_im;
    }
    for (q, &c) in cols.iter().enumerate() {
        let cm = c * lanes;
        let p = p0 + q * lanes;
        for l in 0..lanes {
            let pr = f_re[p + l] * y_re[cm + l] - f_im[p + l] * y_im[cm + l];
            let pi = f_re[p + l] * y_im[cm + l] + f_im[p + l] * y_re[cm + l];
            y_re[im + l] -= pr;
            y_im[im + l] -= pi;
        }
    }
}

/// One back-substitution row of [`lane_bwd_all_scalar`]: `im` is `i·lanes`
/// in `y`, `p0` the offset of `cols[0]`'s values and `dp` the pivot offset
/// in `f`.
#[allow(clippy::too_many_arguments)]
fn lane_bwd_row_scalar(
    y_re: &mut [f64],
    y_im: &mut [f64],
    im: usize,
    cols: &[usize],
    p0: usize,
    dp: usize,
    f_re: &[f64],
    f_im: &[f64],
    lanes: usize,
) {
    for (q, &c) in cols.iter().enumerate() {
        let cm = c * lanes;
        let p = p0 + q * lanes;
        for l in 0..lanes {
            let pr = f_re[p + l] * y_re[cm + l] - f_im[p + l] * y_im[cm + l];
            let pi = f_re[p + l] * y_im[cm + l] + f_im[p + l] * y_re[cm + l];
            y_re[im + l] -= pr;
            y_im[im + l] -= pi;
        }
    }
    for l in 0..lanes {
        let q = Complex::new(y_re[im + l], y_im[im + l]) / Complex::new(f_re[dp + l], f_im[dp + l]);
        y_re[im + l] = q.re;
        y_im[im + l] = q.im;
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::complex::Complex;
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_sub(dst: &mut [f64], src: &[f64], f: f64) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let fv = _mm256_set1_pd(f);
        let mut i = 0usize;
        while i + 4 <= n {
            let s = _mm256_loadu_pd(sp.add(i));
            let d = _mm256_loadu_pd(dp.add(i));
            let p = _mm256_mul_pd(fv, s);
            _mm256_storeu_pd(dp.add(i), _mm256_sub_pd(d, p));
            i += 4;
        }
        while i < n {
            *dp.add(i) -= f * *sp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn caxpy_sub(dst: &mut [Complex], src: &[Complex], f: Complex) {
        let n = dst.len();
        // Complex is #[repr(C)] { re, im }: interleaved [re, im, re, im].
        let dp = dst.as_mut_ptr().cast::<f64>();
        let sp = src.as_ptr().cast::<f64>();
        let fre = _mm256_set1_pd(f.re);
        let fim = _mm256_set1_pd(f.im);
        let mut i = 0usize;
        while i + 2 <= n {
            let v = _mm256_loadu_pd(sp.add(2 * i)); // [r0, i0, r1, i1]
            let t1 = _mm256_mul_pd(fre, v); // [fre·r0, fre·i0, ...]
            let vs = _mm256_permute_pd(v, 0b0101); // [i0, r0, i1, r1]
            let t2 = _mm256_mul_pd(fim, vs); // [fim·i0, fim·r0, ...]
                                             // [t1₀−t2₀, t1₁+t2₁, ...] = [fre·r−fim·i, fre·i+fim·r, ...]:
                                             // single-rounded, exactly Complex::mul.
            let prod = _mm256_addsub_pd(t1, t2);
            let d = _mm256_loadu_pd(dp.add(2 * i));
            _mm256_storeu_pd(dp.add(2 * i), _mm256_sub_pd(d, prod));
            i += 2;
        }
        while i < n {
            let d = &mut *dst.as_mut_ptr().add(i);
            *d -= f * *src.as_ptr().add(i);
            i += 1;
        }
    }

    /// Four-lane Smith division `(ar + i·ai) / (br + i·bi)`, bit-identical
    /// per lane to `Complex::div`'s branchy scalar code by blending
    /// *operands* on the branch predicate `|br| ≥ |bi|` (one rounded op
    /// sequence serves both branches; addition operand order commutes
    /// bitwise, the non-commutative imaginary subtraction is computed both
    /// ways and result-blended). Does **not** reproduce the exact-zero
    /// short-circuit — callers either exclude exact-zero denominators
    /// (factored pivots) or patch those lanes afterwards.
    #[inline(always)]
    unsafe fn smith4(ar: __m256d, ai: __m256d, br: __m256d, bi: __m256d) -> (__m256d, __m256d) {
        let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffffu64 as i64));
        // Ordered ≥: false on NaN, exactly like the scalar `>=`; all-ones
        // selects the "A" (|br| ≥ |bi|) operands in the blends below.
        let mask =
            _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_and_pd(br, abs_mask), _mm256_and_pd(bi, abs_mask));
        // r = (A: bi/br, B: br/bi)
        let num = _mm256_blendv_pd(br, bi, mask);
        let den = _mm256_blendv_pd(bi, br, mask);
        let r = _mm256_div_pd(num, den);
        // d = (A: br + bi·r, B: br·r + bi ≡ bi + br·r)
        let d = _mm256_add_pd(den, _mm256_mul_pd(num, r));
        // sel_a = (A: ar, B: ai), sel_b = (A: ai, B: ar)
        let sel_a = _mm256_blendv_pd(ai, ar, mask);
        let sel_b = _mm256_blendv_pd(ar, ai, mask);
        // num_re = (A: ar + ai·r, B: ar·r + ai ≡ ai + ar·r)
        let num_re = _mm256_add_pd(sel_a, _mm256_mul_pd(sel_b, r));
        // num_im = (A: ai − ar·r, B: ai·r − ar), result-blended.
        let t = _mm256_mul_pd(sel_a, r);
        let u = _mm256_sub_pd(ai, t);
        let v = _mm256_sub_pd(t, ar);
        let num_im = _mm256_blendv_pd(v, u, mask);
        (_mm256_div_pd(num_re, d), _mm256_div_pd(num_im, d))
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn lane_fwd_row(
        y_re: &mut [f64],
        y_im: &mut [f64],
        im: usize,
        b_re: f64,
        b_im: f64,
        cols: &[usize],
        p0: usize,
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        debug_assert!(lanes % 4 == 0 && lanes <= super::MAX_LANES);
        let groups = lanes / 4;
        let mut accr = [_mm256_set1_pd(b_re); super::MAX_LANES / 4];
        let mut acci = [_mm256_set1_pd(b_im); super::MAX_LANES / 4];
        for (q, &c) in cols.iter().enumerate() {
            let cm = c * lanes;
            let p = p0 + q * lanes;
            for g in 0..groups {
                let o = 4 * g;
                let ar = _mm256_loadu_pd(f_re[p + o..p + o + 4].as_ptr());
                let ai = _mm256_loadu_pd(f_im[p + o..p + o + 4].as_ptr());
                let br = _mm256_loadu_pd(y_re[cm + o..cm + o + 4].as_ptr());
                let bi = _mm256_loadu_pd(y_im[cm + o..cm + o + 4].as_ptr());
                let pr = _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi));
                let pi = _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br));
                accr[g] = _mm256_sub_pd(accr[g], pr);
                acci[g] = _mm256_sub_pd(acci[g], pi);
            }
        }
        for g in 0..groups {
            let o = 4 * g;
            _mm256_storeu_pd(y_re[im + o..im + o + 4].as_mut_ptr(), accr[g]);
            _mm256_storeu_pd(y_im[im + o..im + o + 4].as_mut_ptr(), acci[g]);
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn lane_bwd_row(
        y_re: &mut [f64],
        y_im: &mut [f64],
        im: usize,
        cols: &[usize],
        p0: usize,
        dp: usize,
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        debug_assert!(lanes % 4 == 0 && lanes <= super::MAX_LANES);
        let groups = lanes / 4;
        let mut accr = [_mm256_setzero_pd(); super::MAX_LANES / 4];
        let mut acci = [_mm256_setzero_pd(); super::MAX_LANES / 4];
        for g in 0..groups {
            let o = 4 * g;
            accr[g] = _mm256_loadu_pd(y_re[im + o..im + o + 4].as_ptr());
            acci[g] = _mm256_loadu_pd(y_im[im + o..im + o + 4].as_ptr());
        }
        for (q, &c) in cols.iter().enumerate() {
            let cm = c * lanes;
            let p = p0 + q * lanes;
            for g in 0..groups {
                let o = 4 * g;
                let ar = _mm256_loadu_pd(f_re[p + o..p + o + 4].as_ptr());
                let ai = _mm256_loadu_pd(f_im[p + o..p + o + 4].as_ptr());
                let br = _mm256_loadu_pd(y_re[cm + o..cm + o + 4].as_ptr());
                let bi = _mm256_loadu_pd(y_im[cm + o..cm + o + 4].as_ptr());
                let pr = _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi));
                let pi = _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br));
                accr[g] = _mm256_sub_pd(accr[g], pr);
                acci[g] = _mm256_sub_pd(acci[g], pi);
            }
        }
        // Divide by the pivot (excludes exact zero — no patch needed).
        for g in 0..groups {
            let o = 4 * g;
            let pr = _mm256_loadu_pd(f_re[dp + o..dp + o + 4].as_ptr());
            let pi = _mm256_loadu_pd(f_im[dp + o..dp + o + 4].as_ptr());
            let (qr, qi) = smith4(accr[g], acci[g], pr, pi);
            _mm256_storeu_pd(y_re[im + o..im + o + 4].as_mut_ptr(), qr);
            _mm256_storeu_pd(y_im[im + o..im + o + 4].as_mut_ptr(), qi);
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::needless_range_loop)]
    pub unsafe fn lane_factor_rows(
        f_re: &mut [f64],
        f_im: &mut [f64],
        f_row_ptr: &[usize],
        f_col: &[usize],
        f_diag: &[usize],
        e_target: &[usize],
        lanes: usize,
        tol: f64,
    ) -> Option<(usize, f64)> {
        let n = f_diag.len();
        let groups = lanes / 4;
        let mut cur = 0usize;
        for i in 0..n {
            for pos in f_row_ptr[i]..f_diag[i] {
                let j = f_col[pos];
                let (d, e) = (f_diag[j] + 1, f_row_ptr[j + 1]);
                let pm = pos * lanes;
                let dpm = f_diag[j] * lanes;
                // Multiplier lanes in place (≤ 2 register pairs at
                // MAX_LANES = 8). Pivots exclude exact zero, so smith4
                // needs no patch.
                let mut fr = [_mm256_setzero_pd(); super::MAX_LANES / 4];
                let mut fi = [_mm256_setzero_pd(); super::MAX_LANES / 4];
                for g in 0..groups {
                    let o = 4 * g;
                    let wr = _mm256_loadu_pd(f_re[pm + o..pm + o + 4].as_ptr());
                    let wi = _mm256_loadu_pd(f_im[pm + o..pm + o + 4].as_ptr());
                    let pr = _mm256_loadu_pd(f_re[dpm + o..dpm + o + 4].as_ptr());
                    let pi = _mm256_loadu_pd(f_im[dpm + o..dpm + o + 4].as_ptr());
                    let (qr, qi) = smith4(wr, wi, pr, pi);
                    _mm256_storeu_pd(f_re[pm + o..pm + o + 4].as_mut_ptr(), qr);
                    _mm256_storeu_pd(f_im[pm + o..pm + o + 4].as_mut_ptr(), qi);
                    fr[g] = qr;
                    fi[g] = qi;
                }
                for (q, &t) in (d..e).zip(&e_target[cur..cur + (e - d)]) {
                    let qm = q * lanes;
                    let tm = t * lanes;
                    for g in 0..groups {
                        let o = 4 * g;
                        let br = _mm256_loadu_pd(f_re[qm + o..qm + o + 4].as_ptr());
                        let bi = _mm256_loadu_pd(f_im[qm + o..qm + o + 4].as_ptr());
                        let pr = _mm256_sub_pd(_mm256_mul_pd(fr[g], br), _mm256_mul_pd(fi[g], bi));
                        let pi = _mm256_add_pd(_mm256_mul_pd(fr[g], bi), _mm256_mul_pd(fi[g], br));
                        let dr = _mm256_loadu_pd(f_re[tm + o..tm + o + 4].as_ptr());
                        let di = _mm256_loadu_pd(f_im[tm + o..tm + o + 4].as_ptr());
                        _mm256_storeu_pd(
                            f_re[tm + o..tm + o + 4].as_mut_ptr(),
                            _mm256_sub_pd(dr, pr),
                        );
                        _mm256_storeu_pd(
                            f_im[tm + o..tm + o + 4].as_mut_ptr(),
                            _mm256_sub_pd(di, pi),
                        );
                    }
                }
                cur += e - d;
            }
            // Vector screen first: a lane whose |re| or |im| already
            // exceeds 2·tol cannot fail the |pivot| < tol test, so the
            // scalar per-lane check (hypot included) only runs when some
            // lane slips past — which decides exactly as it always does.
            let dp = f_diag[i] * lanes;
            let t2 = _mm256_set1_pd(2.0 * tol);
            let sign = _mm256_set1_pd(-0.0);
            let mut need = 0u32;
            for g in 0..groups {
                let o = 4 * g;
                let ar = _mm256_andnot_pd(sign, _mm256_loadu_pd(f_re[dp + o..dp + o + 4].as_ptr()));
                let ai = _mm256_andnot_pd(sign, _mm256_loadu_pd(f_im[dp + o..dp + o + 4].as_ptr()));
                let pass = _mm256_or_pd(
                    _mm256_cmp_pd::<_CMP_GT_OQ>(ar, t2),
                    _mm256_cmp_pd::<_CMP_GT_OQ>(ai, t2),
                );
                need |= ((!_mm256_movemask_pd(pass) as u32) & 0xF) << (4 * g);
            }
            if need != 0 {
                if let Some(pm) = super::pivot_fail(f_re, f_im, dp, lanes, tol) {
                    return Some((i, pm));
                }
            }
        }
        None
    }

    /// Batched `Y(s) = base + s·C` assembly into lane-strided storage:
    /// broadcast stores at base positions, zero stores at fill-ins, then
    /// the cap accumulation with the lane `s` vectors held in registers.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn lane_assemble(
        f_re: &mut [f64],
        f_im: &mut [f64],
        base: &[Complex],
        scatter: &[usize],
        fill_pos: &[usize],
        cap_slots: &[usize],
        cap_vals: &[f64],
        s_re: &[f64],
        s_im: &[f64],
        lanes: usize,
    ) {
        let groups = lanes / 4;
        for (k, &v) in base.iter().enumerate() {
            let p = scatter[k] * lanes;
            // `0.0 + v` in scalar first, so signed zeros match the
            // serial `fill(ZERO)` + `+=` result exactly.
            let vr = _mm256_set1_pd(0.0 + v.re);
            let vi = _mm256_set1_pd(0.0 + v.im);
            for g in 0..groups {
                let o = 4 * g;
                _mm256_storeu_pd(f_re[p + o..p + o + 4].as_mut_ptr(), vr);
                _mm256_storeu_pd(f_im[p + o..p + o + 4].as_mut_ptr(), vi);
            }
        }
        let z = _mm256_setzero_pd();
        for &fp in fill_pos {
            let p = fp * lanes;
            for g in 0..groups {
                let o = 4 * g;
                _mm256_storeu_pd(f_re[p + o..p + o + 4].as_mut_ptr(), z);
                _mm256_storeu_pd(f_im[p + o..p + o + 4].as_mut_ptr(), z);
            }
        }
        let mut sr = [_mm256_setzero_pd(); super::MAX_LANES / 4];
        let mut si = [_mm256_setzero_pd(); super::MAX_LANES / 4];
        for g in 0..groups {
            let o = 4 * g;
            sr[g] = _mm256_loadu_pd(s_re[o..o + 4].as_ptr());
            si[g] = _mm256_loadu_pd(s_im[o..o + 4].as_ptr());
        }
        for (&slot, &c) in cap_slots.iter().zip(cap_vals) {
            let p = scatter[slot] * lanes;
            let cv = _mm256_set1_pd(c);
            for g in 0..groups {
                let o = 4 * g;
                let dr = _mm256_loadu_pd(f_re[p + o..p + o + 4].as_ptr());
                let di = _mm256_loadu_pd(f_im[p + o..p + o + 4].as_ptr());
                // mul-then-add, never fused: identical to `d + s·c`.
                _mm256_storeu_pd(
                    f_re[p + o..p + o + 4].as_mut_ptr(),
                    _mm256_add_pd(dr, _mm256_mul_pd(sr[g], cv)),
                );
                _mm256_storeu_pd(
                    f_im[p + o..p + o + 4].as_mut_ptr(),
                    _mm256_add_pd(di, _mm256_mul_pd(si[g], cv)),
                );
            }
        }
    }

    /// Four-wide real-coefficient Horner at `z = jω`, kept as the explicit
    /// `(0, ω)` complex multiply (no algebraic simplification, so lane
    /// rounding matches the scalar fold).
    #[inline(always)]
    unsafe fn horner_jw4(coeffs: &[f64], zr: __m256d, zi: __m256d) -> (__m256d, __m256d) {
        let mut ar = _mm256_setzero_pd();
        let mut ai = _mm256_setzero_pd();
        for &c in coeffs.iter().rev() {
            let tr = _mm256_sub_pd(_mm256_mul_pd(ar, zr), _mm256_mul_pd(ai, zi));
            let ti = _mm256_add_pd(_mm256_mul_pd(ar, zi), _mm256_mul_pd(ai, zr));
            ar = _mm256_add_pd(tr, _mm256_set1_pd(c));
            ai = ti;
        }
        (ar, ai)
    }

    /// Four-wide rational magnitudes: Horner via [`horner_jw4`], Smith
    /// division, then per-lane scalar `hypot`. Exact-zero denominators
    /// are redone with the scalar `Complex` divide, which short-circuits
    /// them.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rational_mags(num: &[f64], den: &[f64], freqs_hz: &[f64], out: &mut [f64]) {
        let n = freqs_hz.len();
        let mut i = 0usize;
        while i + 4 <= n {
            let mut w = [0.0f64; 4];
            for (wl, &f) in w.iter_mut().zip(&freqs_hz[i..i + 4]) {
                *wl = 2.0 * std::f64::consts::PI * f;
            }
            let zi = _mm256_loadu_pd(w.as_ptr());
            let zr = _mm256_setzero_pd();
            let (nr, ni) = horner_jw4(num, zr, zi);
            let (dr, di) = horner_jw4(den, zr, zi);
            let (qr, qi) = smith4(nr, ni, dr, di);
            let (mut drb, mut dib, mut qrb, mut qib) =
                ([0.0f64; 4], [0.0f64; 4], [0.0f64; 4], [0.0f64; 4]);
            _mm256_storeu_pd(drb.as_mut_ptr(), dr);
            _mm256_storeu_pd(dib.as_mut_ptr(), di);
            _mm256_storeu_pd(qrb.as_mut_ptr(), qr);
            _mm256_storeu_pd(qib.as_mut_ptr(), qi);
            let (mut nrb, mut nib) = ([0.0f64; 4], [0.0f64; 4]);
            _mm256_storeu_pd(nrb.as_mut_ptr(), nr);
            _mm256_storeu_pd(nib.as_mut_ptr(), ni);
            for l in 0..4 {
                let q = if drb[l] == 0.0 && dib[l] == 0.0 {
                    Complex::new(nrb[l], nib[l]) / Complex::new(drb[l], dib[l])
                } else {
                    Complex::new(qrb[l], qib[l])
                };
                out[i + l] = q.norm();
            }
            i += 4;
        }
        super::rational_mags_scalar(num, den, &freqs_hz[i..], &mut out[i..]);
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn lane_fwd_all(
        y_re: &mut [f64],
        y_im: &mut [f64],
        b: &[Complex],
        row_perm: &[usize],
        f_row_ptr: &[usize],
        f_col: &[usize],
        f_diag: &[usize],
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        for i in 0..f_diag.len() {
            let bv = b[row_perm[i]];
            let (start, d) = (f_row_ptr[i], f_diag[i]);
            lane_fwd_row(
                y_re,
                y_im,
                i * lanes,
                bv.re,
                bv.im,
                &f_col[start..d],
                start * lanes,
                f_re,
                f_im,
                lanes,
            );
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn lane_bwd_all(
        y_re: &mut [f64],
        y_im: &mut [f64],
        f_row_ptr: &[usize],
        f_col: &[usize],
        f_diag: &[usize],
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        for i in (0..f_diag.len()).rev() {
            let (d, e) = (f_diag[i], f_row_ptr[i + 1]);
            lane_bwd_row(
                y_re,
                y_im,
                i * lanes,
                &f_col[d + 1..e],
                (d + 1) * lanes,
                d * lanes,
                f_re,
                f_im,
                lanes,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// NEON kernels (aarch64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use crate::complex::Complex;
    use core::arch::aarch64::*;

    pub fn axpy_sub(dst: &mut [f64], src: &[f64], f: f64) {
        let n = dst.len();
        // SAFETY: NEON is mandatory on aarch64; loads/stores stay in-bounds.
        unsafe {
            let dp = dst.as_mut_ptr();
            let sp = src.as_ptr();
            let fv = vdupq_n_f64(f);
            let mut i = 0usize;
            while i + 2 <= n {
                let s = vld1q_f64(sp.add(i));
                let d = vld1q_f64(dp.add(i));
                let p = vmulq_f64(fv, s);
                vst1q_f64(dp.add(i), vsubq_f64(d, p));
                i += 2;
            }
            while i < n {
                *dp.add(i) -= f * *sp.add(i);
                i += 1;
            }
        }
    }

    pub fn caxpy_sub(dst: &mut [Complex], src: &[Complex], f: Complex) {
        let n = dst.len();
        // SAFETY: Complex is #[repr(C)] { re, im }; one 128-bit vector holds
        // one complex value.
        unsafe {
            let dp = dst.as_mut_ptr().cast::<f64>();
            let sp = src.as_ptr().cast::<f64>();
            let fre = vdupq_n_f64(f.re);
            let fim = vdupq_n_f64(f.im);
            // Sign mask flipping lane 0 only: t1 + (−t2₀, +t2₁) ≡
            // (t1₀ − t2₀, t1₁ + t2₁), bit-identical to sub/add.
            let signmask = vreinterpretq_f64_u64(vcombine_u64(
                vcreate_u64(0x8000_0000_0000_0000),
                vcreate_u64(0),
            ));
            for i in 0..n {
                let v = vld1q_f64(sp.add(2 * i)); // [re, im]
                let t1 = vmulq_f64(fre, v); // [fre·re, fre·im]
                let vs = vextq_f64(v, v, 1); // [im, re]
                let t2 = vmulq_f64(fim, vs); // [fim·im, fim·re]
                let t2s = vreinterpretq_f64_u64(veorq_u64(
                    vreinterpretq_u64_f64(t2),
                    vreinterpretq_u64_f64(signmask),
                ));
                let prod = vaddq_f64(t1, t2s);
                let d = vld1q_f64(dp.add(2 * i));
                vst1q_f64(dp.add(2 * i), vsubq_f64(d, prod));
            }
        }
    }

    /// Two-lane Smith division, bit-identical per lane to `Complex::div`'s
    /// branchy scalar code via operand blends on `|br| ≥ |bi|` (see the
    /// AVX2 `smith4` notes). Does **not** reproduce the exact-zero
    /// short-circuit — callers exclude or patch those lanes.
    #[inline(always)]
    unsafe fn smith2(
        ar: float64x2_t,
        ai: float64x2_t,
        br: float64x2_t,
        bi: float64x2_t,
    ) -> (float64x2_t, float64x2_t) {
        // Branch predicate |br| ≥ |bi| (false on NaN, like scalar).
        let mask = vcgeq_f64(vabsq_f64(br), vabsq_f64(bi));
        // r = (A: bi/br, B: br/bi); d = (A: br + bi·r, B: bi + br·r).
        let num = vbslq_f64(mask, bi, br);
        let den = vbslq_f64(mask, br, bi);
        let r = vdivq_f64(num, den);
        let d = vaddq_f64(den, vmulq_f64(num, r));
        let sel_a = vbslq_f64(mask, ar, ai);
        let sel_b = vbslq_f64(mask, ai, ar);
        let num_re = vaddq_f64(sel_a, vmulq_f64(sel_b, r));
        // Non-commutative imaginary part: compute both branch results,
        // blend the results.
        let t = vmulq_f64(sel_a, r);
        let u = vsubq_f64(ai, t);
        let v = vsubq_f64(t, ar);
        let num_im = vbslq_f64(mask, u, v);
        (vdivq_f64(num_re, d), vdivq_f64(num_im, d))
    }

    #[allow(clippy::too_many_arguments)]
    fn lane_fwd_row(
        y_re: &mut [f64],
        y_im: &mut [f64],
        im: usize,
        b_re: f64,
        b_im: f64,
        cols: &[usize],
        p0: usize,
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        debug_assert!(lanes % 2 == 0 && lanes <= super::MAX_LANES);
        let groups = lanes / 2;
        // SAFETY: slice indexing bounds-checks every vector load/store span.
        unsafe {
            let mut accr = [vdupq_n_f64(b_re); super::MAX_LANES / 2];
            let mut acci = [vdupq_n_f64(b_im); super::MAX_LANES / 2];
            for (q, &c) in cols.iter().enumerate() {
                let cm = c * lanes;
                let p = p0 + q * lanes;
                for g in 0..groups {
                    let o = 2 * g;
                    let ar = vld1q_f64(f_re[p + o..p + o + 2].as_ptr());
                    let ai = vld1q_f64(f_im[p + o..p + o + 2].as_ptr());
                    let br = vld1q_f64(y_re[cm + o..cm + o + 2].as_ptr());
                    let bi = vld1q_f64(y_im[cm + o..cm + o + 2].as_ptr());
                    let pr = vsubq_f64(vmulq_f64(ar, br), vmulq_f64(ai, bi));
                    let pi = vaddq_f64(vmulq_f64(ar, bi), vmulq_f64(ai, br));
                    accr[g] = vsubq_f64(accr[g], pr);
                    acci[g] = vsubq_f64(acci[g], pi);
                }
            }
            for g in 0..groups {
                let o = 2 * g;
                vst1q_f64(y_re[im + o..im + o + 2].as_mut_ptr(), accr[g]);
                vst1q_f64(y_im[im + o..im + o + 2].as_mut_ptr(), acci[g]);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn lane_bwd_row(
        y_re: &mut [f64],
        y_im: &mut [f64],
        im: usize,
        cols: &[usize],
        p0: usize,
        dp: usize,
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        debug_assert!(lanes % 2 == 0 && lanes <= super::MAX_LANES);
        let groups = lanes / 2;
        // SAFETY: slice indexing bounds-checks every vector load/store span.
        unsafe {
            let mut accr = [vdupq_n_f64(0.0); super::MAX_LANES / 2];
            let mut acci = [vdupq_n_f64(0.0); super::MAX_LANES / 2];
            for g in 0..groups {
                let o = 2 * g;
                accr[g] = vld1q_f64(y_re[im + o..im + o + 2].as_ptr());
                acci[g] = vld1q_f64(y_im[im + o..im + o + 2].as_ptr());
            }
            for (q, &c) in cols.iter().enumerate() {
                let cm = c * lanes;
                let p = p0 + q * lanes;
                for g in 0..groups {
                    let o = 2 * g;
                    let ar = vld1q_f64(f_re[p + o..p + o + 2].as_ptr());
                    let ai = vld1q_f64(f_im[p + o..p + o + 2].as_ptr());
                    let br = vld1q_f64(y_re[cm + o..cm + o + 2].as_ptr());
                    let bi = vld1q_f64(y_im[cm + o..cm + o + 2].as_ptr());
                    let pr = vsubq_f64(vmulq_f64(ar, br), vmulq_f64(ai, bi));
                    let pi = vaddq_f64(vmulq_f64(ar, bi), vmulq_f64(ai, br));
                    accr[g] = vsubq_f64(accr[g], pr);
                    acci[g] = vsubq_f64(acci[g], pi);
                }
            }
            for g in 0..groups {
                let o = 2 * g;
                let pr = vld1q_f64(f_re[dp + o..dp + o + 2].as_ptr());
                let pi = vld1q_f64(f_im[dp + o..dp + o + 2].as_ptr());
                let (qr, qi) = smith2(accr[g], acci[g], pr, pi);
                vst1q_f64(y_re[im + o..im + o + 2].as_mut_ptr(), qr);
                vst1q_f64(y_im[im + o..im + o + 2].as_mut_ptr(), qi);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn lane_factor_rows(
        f_re: &mut [f64],
        f_im: &mut [f64],
        f_row_ptr: &[usize],
        f_col: &[usize],
        f_diag: &[usize],
        e_target: &[usize],
        lanes: usize,
        tol: f64,
    ) -> Option<(usize, f64)> {
        let n = f_diag.len();
        let groups = lanes / 2;
        let mut cur = 0usize;
        for i in 0..n {
            for pos in f_row_ptr[i]..f_diag[i] {
                let j = f_col[pos];
                let (d, e) = (f_diag[j] + 1, f_row_ptr[j + 1]);
                let pm = pos * lanes;
                let dpm = f_diag[j] * lanes;
                // SAFETY: NEON is mandatory on aarch64; slice indexing
                // bounds-checks every load/store span.
                unsafe {
                    // Multiplier lanes in place. Pivots exclude exact
                    // zero, so smith2 needs no patch.
                    let mut fr = [vdupq_n_f64(0.0); super::MAX_LANES / 2];
                    let mut fi = [vdupq_n_f64(0.0); super::MAX_LANES / 2];
                    for g in 0..groups {
                        let o = 2 * g;
                        let wr = vld1q_f64(f_re[pm + o..pm + o + 2].as_ptr());
                        let wi = vld1q_f64(f_im[pm + o..pm + o + 2].as_ptr());
                        let pr = vld1q_f64(f_re[dpm + o..dpm + o + 2].as_ptr());
                        let pi = vld1q_f64(f_im[dpm + o..dpm + o + 2].as_ptr());
                        let (qr, qi) = smith2(wr, wi, pr, pi);
                        vst1q_f64(f_re[pm + o..pm + o + 2].as_mut_ptr(), qr);
                        vst1q_f64(f_im[pm + o..pm + o + 2].as_mut_ptr(), qi);
                        fr[g] = qr;
                        fi[g] = qi;
                    }
                    for (q, &t) in (d..e).zip(&e_target[cur..cur + (e - d)]) {
                        let qm = q * lanes;
                        let tm = t * lanes;
                        for g in 0..groups {
                            let o = 2 * g;
                            let br = vld1q_f64(f_re[qm + o..qm + o + 2].as_ptr());
                            let bi = vld1q_f64(f_im[qm + o..qm + o + 2].as_ptr());
                            let pr = vsubq_f64(vmulq_f64(fr[g], br), vmulq_f64(fi[g], bi));
                            let pi = vaddq_f64(vmulq_f64(fr[g], bi), vmulq_f64(fi[g], br));
                            let dr = vld1q_f64(f_re[tm + o..tm + o + 2].as_ptr());
                            let di = vld1q_f64(f_im[tm + o..tm + o + 2].as_ptr());
                            vst1q_f64(f_re[tm + o..tm + o + 2].as_mut_ptr(), vsubq_f64(dr, pr));
                            vst1q_f64(f_im[tm + o..tm + o + 2].as_mut_ptr(), vsubq_f64(di, pi));
                        }
                    }
                }
                cur += e - d;
            }
            if let Some(pm) = super::pivot_fail(f_re, f_im, f_diag[i] * lanes, lanes, tol) {
                return Some((i, pm));
            }
        }
        None
    }

    /// Batched `Y(s) = base + s·C` assembly into lane-strided storage:
    /// broadcast stores at base positions, zero stores at fill-ins, then
    /// the cap accumulation with the lane `s` vectors held in registers.
    #[allow(clippy::too_many_arguments)]
    pub fn lane_assemble(
        f_re: &mut [f64],
        f_im: &mut [f64],
        base: &[Complex],
        scatter: &[usize],
        fill_pos: &[usize],
        cap_slots: &[usize],
        cap_vals: &[f64],
        s_re: &[f64],
        s_im: &[f64],
        lanes: usize,
    ) {
        let groups = lanes / 2;
        // SAFETY: NEON is mandatory on aarch64; slice indexing
        // bounds-checks every load/store span.
        unsafe {
            for (k, &v) in base.iter().enumerate() {
                let p = scatter[k] * lanes;
                // `0.0 + v` in scalar first, so signed zeros match the
                // serial `fill(ZERO)` + `+=` result exactly.
                let vr = vdupq_n_f64(0.0 + v.re);
                let vi = vdupq_n_f64(0.0 + v.im);
                for g in 0..groups {
                    let o = 2 * g;
                    vst1q_f64(f_re[p + o..p + o + 2].as_mut_ptr(), vr);
                    vst1q_f64(f_im[p + o..p + o + 2].as_mut_ptr(), vi);
                }
            }
            let z = vdupq_n_f64(0.0);
            for &fp in fill_pos {
                let p = fp * lanes;
                for g in 0..groups {
                    let o = 2 * g;
                    vst1q_f64(f_re[p + o..p + o + 2].as_mut_ptr(), z);
                    vst1q_f64(f_im[p + o..p + o + 2].as_mut_ptr(), z);
                }
            }
            let mut sr = [vdupq_n_f64(0.0); super::MAX_LANES / 2];
            let mut si = [vdupq_n_f64(0.0); super::MAX_LANES / 2];
            for g in 0..groups {
                let o = 2 * g;
                sr[g] = vld1q_f64(s_re[o..o + 2].as_ptr());
                si[g] = vld1q_f64(s_im[o..o + 2].as_ptr());
            }
            for (&slot, &c) in cap_slots.iter().zip(cap_vals) {
                let p = scatter[slot] * lanes;
                let cv = vdupq_n_f64(c);
                for g in 0..groups {
                    let o = 2 * g;
                    let dr = vld1q_f64(f_re[p + o..p + o + 2].as_ptr());
                    let di = vld1q_f64(f_im[p + o..p + o + 2].as_ptr());
                    // mul-then-add, never fused: identical to `d + s·c`.
                    vst1q_f64(
                        f_re[p + o..p + o + 2].as_mut_ptr(),
                        vaddq_f64(dr, vmulq_f64(sr[g], cv)),
                    );
                    vst1q_f64(
                        f_im[p + o..p + o + 2].as_mut_ptr(),
                        vaddq_f64(di, vmulq_f64(si[g], cv)),
                    );
                }
            }
        }
    }

    /// Two-wide real-coefficient Horner at `z = jω`, kept as the explicit
    /// `(0, ω)` complex multiply (no algebraic simplification, so lane
    /// rounding matches the scalar fold).
    #[inline(always)]
    unsafe fn horner_jw2(
        coeffs: &[f64],
        zr: float64x2_t,
        zi: float64x2_t,
    ) -> (float64x2_t, float64x2_t) {
        let mut ar = vdupq_n_f64(0.0);
        let mut ai = vdupq_n_f64(0.0);
        for &c in coeffs.iter().rev() {
            let tr = vsubq_f64(vmulq_f64(ar, zr), vmulq_f64(ai, zi));
            let ti = vaddq_f64(vmulq_f64(ar, zi), vmulq_f64(ai, zr));
            ar = vaddq_f64(tr, vdupq_n_f64(c));
            ai = ti;
        }
        (ar, ai)
    }

    /// Two-wide rational magnitudes: Horner via [`horner_jw2`], Smith
    /// division, then per-lane scalar `hypot`. Exact-zero denominators
    /// are redone with the scalar `Complex` divide, which short-circuits
    /// them.
    pub fn rational_mags(num: &[f64], den: &[f64], freqs_hz: &[f64], out: &mut [f64]) {
        let n = freqs_hz.len();
        let mut i = 0usize;
        // SAFETY: NEON is mandatory on aarch64; loads/stores go through
        // fixed-size stack buffers.
        unsafe {
            let zr = vdupq_n_f64(0.0);
            while i + 2 <= n {
                let mut w = [0.0f64; 2];
                for (wl, &f) in w.iter_mut().zip(&freqs_hz[i..i + 2]) {
                    *wl = 2.0 * std::f64::consts::PI * f;
                }
                let zi = vld1q_f64(w.as_ptr());
                let (nr, ni) = horner_jw2(num, zr, zi);
                let (dr, di) = horner_jw2(den, zr, zi);
                let (qr, qi) = smith2(nr, ni, dr, di);
                let (mut drb, mut dib, mut qrb, mut qib) =
                    ([0.0f64; 2], [0.0f64; 2], [0.0f64; 2], [0.0f64; 2]);
                vst1q_f64(drb.as_mut_ptr(), dr);
                vst1q_f64(dib.as_mut_ptr(), di);
                vst1q_f64(qrb.as_mut_ptr(), qr);
                vst1q_f64(qib.as_mut_ptr(), qi);
                let (mut nrb, mut nib) = ([0.0f64; 2], [0.0f64; 2]);
                vst1q_f64(nrb.as_mut_ptr(), nr);
                vst1q_f64(nib.as_mut_ptr(), ni);
                for l in 0..2 {
                    let q = if drb[l] == 0.0 && dib[l] == 0.0 {
                        Complex::new(nrb[l], nib[l]) / Complex::new(drb[l], dib[l])
                    } else {
                        Complex::new(qrb[l], qib[l])
                    };
                    out[i + l] = q.norm();
                }
                i += 2;
            }
        }
        super::rational_mags_scalar(num, den, &freqs_hz[i..], &mut out[i..]);
    }

    #[allow(clippy::too_many_arguments)]
    pub fn lane_fwd_all(
        y_re: &mut [f64],
        y_im: &mut [f64],
        b: &[Complex],
        row_perm: &[usize],
        f_row_ptr: &[usize],
        f_col: &[usize],
        f_diag: &[usize],
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        for i in 0..f_diag.len() {
            let bv = b[row_perm[i]];
            let (start, d) = (f_row_ptr[i], f_diag[i]);
            lane_fwd_row(
                y_re,
                y_im,
                i * lanes,
                bv.re,
                bv.im,
                &f_col[start..d],
                start * lanes,
                f_re,
                f_im,
                lanes,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn lane_bwd_all(
        y_re: &mut [f64],
        y_im: &mut [f64],
        f_row_ptr: &[usize],
        f_col: &[usize],
        f_diag: &[usize],
        f_re: &[f64],
        f_im: &[f64],
        lanes: usize,
    ) {
        for i in (0..f_diag.len()).rev() {
            let (d, e) = (f_diag[i], f_row_ptr[i + 1]);
            lane_bwd_row(
                y_re,
                y_im,
                i * lanes,
                &f_col[d + 1..e],
                (d + 1) * lanes,
                d * lanes,
                f_re,
                f_im,
                lanes,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: f64) -> u64 {
        v.to_bits()
    }

    #[test]
    fn backend_name_is_consistent() {
        let b = backend();
        let name = backend_name();
        match b {
            Backend::Scalar => assert_eq!(name, "scalar"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => assert_eq!(name, "avx2"),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => assert_eq!(name, "neon"),
        }
        assert_eq!(backend(), b, "detection is cached");
    }

    #[test]
    fn axpy_sub_matches_scalar_bitwise() {
        for n in [0usize, 1, 3, 4, 7, 16, 33] {
            let src: Vec<f64> = (0..n).map(|i| (i as f64 * 0.731).sin() * 1e3).collect();
            let mut a: Vec<f64> = (0..n).map(|i| (i as f64 * 1.37).cos()).collect();
            let mut b = a.clone();
            let f = -0.62591;
            axpy_sub(&mut a, &src, f);
            axpy_sub_scalar(&mut b, &src, f);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(bits(*x), bits(*y), "n={n}");
            }
        }
    }

    #[test]
    fn caxpy_sub_matches_scalar_bitwise() {
        for n in [0usize, 1, 2, 3, 5, 8, 17] {
            let src: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos() * 1e-4))
                .collect();
            let mut a: Vec<Complex> = (0..n)
                .map(|i| Complex::new(1.0 + i as f64, -0.25 * i as f64))
                .collect();
            let mut b = a.clone();
            let f = Complex::new(0.37, -1.85);
            caxpy_sub(&mut a, &src, f);
            caxpy_sub_scalar(&mut b, &src, f);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(bits(x.re), bits(y.re), "n={n}");
                assert_eq!(bits(x.im), bits(y.im), "n={n}");
            }
        }
    }
}
