"""STU sequence layers: one fused spectral kernel and its adjoint, plus the
explicit featurization that least squares and the oracles need.

The featurization convolves the input with the fixed filters,

    U+[t, k] = sum_{i=0}^{t-1} u_{t-i} * phi_k(i)
    U-[t, k] = sum_{i=0}^{t-1} u_{t-i} * (-1)^i * phi_k(i)

(filters indexed from lag 0, u zero for t <= 0).  The layer output is

    y_t = y_{t-2} + sum_{i=1..3} M_u[i] u_{t+1-i}
        + sum_k M_plus[k] sigma_k^{1/4} U+[t-2, k]
        + sum_k M_minus[k] sigma_k^{1/4} U-[t-2, k]

with all terms at nonpositive indices contributing zero.  The alternative
variant drops the sign-modulated family and uses a single M_phi set; the
autoregressive extension replaces the fixed y_{t-2} coupling with learned
matrices over the last k_y outputs.

The filters are fixed, so the whole increment g_t, taps and spectral term
together, is one causal convolution of the input with the kernel
h = sum_j M[j] basis[j]: M stacks M_u, M_plus and M_minus (stack_m), and
basis holds the matching rows (_layer_rows) of the layer basis: unit impulses
at lags 0, 1, 2 and the scaled filters delayed by two lags.  The fixed
y_{t-2} coupling is one more fixed filter: its parity prefix sum commutes
with causal convolution, so y itself is the convolution with the
parity-summed basis.  The bank caches the spectra B_j of both forms per
length (_basis), and spectral_forward takes the kernel spectrum
W[f] = sum_j M[j] B_j[f], a (d_out, d_in) matrix per frequency bin, in one
product and applies it to the input spectrum as one gemm per bin; no
(batch, time, K, channel) tensor is ever built.
With k_y = 0 that gives y directly; with M_y learned it gives g, and a scan
on the companion form resolves y.
spectral_backward is the one adjoint: the input gradient is the correlation
of dL/dy (or, with M_y learned, of dL/dg from a reverse companion scan)
with the kernel (conj(W) per bin), and the parameter gradients pair the
correlation spectrum of that adjoint with the input, Lam[f] conj(U[f]), with
each basis spectrum by Parseval.  Every contraction is a real matmul on
the real views of the spectra, whose rows interleave real and imaginary
parts (_bin_matrices): NumPy's complex products run about twice as slow at
these shapes.  A caller that steps repeatedly passes a workspace dict that
it keeps (_buffer): the padded transform inputs, the spectra, the per-bin
products, y and dx then reuse their memory from call to call.

forward, the stack and the trainer's default step run through this pair; the
params and the bank alone decide the filter family and whether M_y is
learned.  Every materialized feature comes from one time-last FFT
convolution, _convolve: featurize convolves the input with the bank's
filters, and layer_streams with the cached basis in the kernel's parameter
layout, so one contraction with stack_m gives the increments, and one
contraction with the increment adjoint gives the stacked gradient that
split_m names.  There the parity prefix sum of the fixed coupling is
applied to signals: the streams of a parity-summed input give the outputs
y_t = y_{t-2} + g_t.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.fft as sfft

from .container import load_arrays, save_arrays
from .filterbank import FilterBank, HankelVariant, _as_variant
from .lds import linear_scan


@dataclass
class StuParams:
    """Learnable layer matrices. Alternative variant keeps M_phi_minus empty."""

    variant: HankelVariant
    K: int
    d_in: int
    d_out: int
    M_u: np.ndarray  # (3, d_out, d_in)
    M_phi_plus: np.ndarray  # (K, d_out, d_in)
    M_phi_minus: np.ndarray  # (K, d_out, d_in) or (0, d_out, d_in)
    M_y: np.ndarray | None = None  # (k_y, d_out, d_out) when autoregressive

    def __post_init__(self):
        self.variant = _as_variant(self.variant)
        if self.M_u.shape != (3, self.d_out, self.d_in):
            raise ValueError(f"M_u must have shape (3, {self.d_out}, {self.d_in})")
        if self.M_phi_plus.shape != (self.K, self.d_out, self.d_in):
            raise ValueError(f"M_phi_plus must have shape ({self.K}, {self.d_out}, {self.d_in})")
        want_minus = self.K if self.variant is HankelVariant.PRIMARY else 0
        if self.M_phi_minus.shape != (want_minus, self.d_out, self.d_in):
            raise ValueError(f"M_phi_minus must have shape ({want_minus}, {self.d_out}, {self.d_in})")
        if self.M_y is not None and (
            self.M_y.ndim != 3 or self.M_y.shape[1:] != (self.d_out, self.d_out)
        ):
            raise ValueError(f"M_y must have shape (k_y, {self.d_out}, {self.d_out})")

    @property
    def k_y(self) -> int:
        return 0 if self.M_y is None else self.M_y.shape[0]

    @classmethod
    def zeros(cls, K, d_in, d_out, variant=HankelVariant.PRIMARY, k_y=0) -> "StuParams":
        variant = _as_variant(variant)
        n_minus = K if variant is HankelVariant.PRIMARY else 0
        return cls(
            variant=variant,
            K=K,
            d_in=d_in,
            d_out=d_out,
            M_u=np.zeros((3, d_out, d_in)),
            M_phi_plus=np.zeros((K, d_out, d_in)),
            M_phi_minus=np.zeros((n_minus, d_out, d_in)),
            M_y=np.zeros((k_y, d_out, d_out)) if k_y else None,
        )

    def named_arrays(self):
        yield "M_u", self.M_u
        yield "M_phi_plus", self.M_phi_plus
        yield "M_phi_minus", self.M_phi_minus
        if self.M_y is not None:
            yield "M_y", self.M_y


@dataclass
class SpectralFeatures:
    """Filter projections of an input batch; both tensors are (batch, time, K, d_in)."""

    U_plus: np.ndarray
    U_minus: np.ndarray


def _check_inputs(inputs: np.ndarray, bank: FilterBank) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ValueError(f"expected inputs of shape (batch, time, channels), got {inputs.shape}")
    if inputs.shape[1] > bank.L:
        raise ValueError(f"sequence length {inputs.shape[1]} exceeds bank length {bank.L}")
    return inputs


def _fft_length(L: int) -> int:
    # Next power of two >= 2L - 1: unambiguous linear convolution.
    return 1 << (2 * L - 2).bit_length() if L > 1 else 1


# Chunk FFT work over basis rows so transient spectra stay a few MB;
# monolithic (rows, channels, batch, bins) tensors cross glibc's mmap threshold
# and make the wall time allocation-bound and erratic.
_CHUNK_BYTES = 4 << 20


def _basis(bank: FilterBank, T: int, cumulative: bool = False) -> np.ndarray:
    """The rfft at _fft_length(T) of the layer basis for T steps, cached on
    the bank per (T, cumulative).

    The basis is (3 + 2 bank.K, T): unit impulses at lags 0, 1 and 2, then
    the scaled filters and their alternating copies, delayed two lags; each
    filter is delayed before it is truncated to T, so no tap wraps around at
    _fft_length(T).  With cumulative each row is parity-prefix-summed in
    time (parity_cumsum): the fixed y_{t-2} coupling, which commutes with
    causal convolution, folded into the filters.  _layer_rows picks a
    layer's rows.
    """
    key = (T, cumulative)
    if key not in bank.spectra:
        filters = bank.scaled_phi[:, : max(T - 2, 0)]
        basis = np.zeros((3 + 2 * bank.K, T))
        basis[:3] = np.eye(3, T)
        basis[3 : 3 + bank.K, 2:] = filters
        basis[3 + bank.K :, 2:] = filters * (-1.0) ** np.arange(filters.shape[1])
        bank.spectra[key] = sfft.rfft(parity_cumsum(basis) if cumulative else basis, _fft_length(T))
    return bank.spectra[key]


def _layer_rows(bank: FilterBank, K: int):
    """The _basis rows of a layer with K filters, in stack_m's order: a slice
    when they are contiguous, so indexing takes a view of the cached spectra
    rather than copying them."""
    if K < 0:
        raise ValueError(f"K must be non-negative, got {K}")
    if K > bank.K:
        raise ValueError(f"need {K} filters but bank has {bank.K}")
    families = 2 if bank.variant is HankelVariant.PRIMARY else 1
    if families == 1 or K == bank.K:
        return slice(0, 3 + families * K)
    return np.concatenate([np.arange(3 + K), np.arange(3 + bank.K, 3 + bank.K + K)])


def _convolve(spectra: np.ndarray, inputs: np.ndarray, out=None) -> np.ndarray:
    """(rows, d_in, batch, T): the input convolved with each row whose rfft at
    _fft_length(T) is a row of spectra, written into out (which may be a
    transposed view) when given.  Time stays on the last, contiguous axis from
    rfft to irfft, and rows run in chunks of _CHUNK_BYTES."""
    B, T, C = inputs.shape
    n = _fft_length(T)
    xf = sfft.rfft(np.ascontiguousarray(inputs.transpose(2, 0, 1)), n)  # (C, B, bins)
    if out is None:
        out = np.empty((len(spectra), C, B, T))
    step = max(1, _CHUNK_BYTES // (16 * xf.size))
    for j in range(0, len(spectra), step):
        out[j : j + step] = sfft.irfft(spectra[j : j + step, None, None] * xf, n)[..., :T]
    return out


def layer_streams(bank: FilterBank, K: int, inputs: np.ndarray) -> np.ndarray:
    """The input convolved with each layer basis row for K filters, (J, d_in,
    batch, T); contracted with stack_m they give the increments g_t.  The
    streams of parity_cumsum(inputs) are the parity prefix sums of the
    streams, and the same contraction gives the outputs y_t = y_{t-2} + g_t."""
    inputs = _check_inputs(inputs, bank)
    return _convolve(_basis(bank, inputs.shape[1])[_layer_rows(bank, K)], inputs)


def featurize(bank: FilterBank, inputs: np.ndarray) -> SpectralFeatures:
    """FFT featurization against the bank's filters and their alternating copies."""
    inputs = _check_inputs(inputs, bank)
    B, T, C = inputs.shape
    filters = bank.phi[:, :T]
    spectra = sfft.rfft(np.concatenate([filters, filters * (-1.0) ** np.arange(T)]), _fft_length(T))
    out = np.empty((B, T, 2 * bank.K, C))
    _convolve(spectra, inputs, out.transpose(2, 3, 0, 1))
    return SpectralFeatures(U_plus=out[:, :, : bank.K], U_minus=out[:, :, bank.K :])


def naive_featurize(bank: FilterBank, inputs: np.ndarray) -> SpectralFeatures:
    """Reference O(L^2) featurization by direct summation."""
    inputs = _check_inputs(inputs, bank)
    B, T, C = inputs.shape
    U_plus = np.zeros((B, T, bank.K, C))
    U_minus = np.zeros((B, T, bank.K, C))
    signs = (-1.0) ** np.arange(bank.L)
    for t in range(T):
        window = inputs[:, t::-1]  # u_t, u_{t-1}, ..., u_0
        U_plus[:, t] = np.einsum("bic,ki->bkc", window, bank.phi[:, : t + 1])
        U_minus[:, t] = np.einsum("bic,ki->bkc", window, (bank.phi * signs)[:, : t + 1])
    return SpectralFeatures(U_plus=U_plus, U_minus=U_minus)


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over batch and time of a_t b_t^T: (B, T, m), (B, T, n) -> (m, n)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def parity_cumsum(g: np.ndarray) -> np.ndarray:
    """g_t + g_{t-2} + g_{t-4} + ... along axis 1: the fixed y_{t-2} coupling."""
    out = g.copy()
    out[:, 0::2] = np.cumsum(out[:, 0::2], axis=1)
    out[:, 1::2] = np.cumsum(out[:, 1::2], axis=1)
    return out


def _companion_scan(params: StuParams, b: np.ndarray, reverse: bool) -> np.ndarray:
    """y_t = sum_i M_y[i-1] y_{t-i} + b_t (its adjoint with reverse) as one
    linear_scan: the state stacks the last k_y outputs, so its matrix has M_y
    in the first block row and an identity shift below it."""
    B, T, d = b.shape
    A = np.eye(params.k_y * d, k=-d)
    A[:d] = params.M_y.transpose(1, 0, 2).reshape(d, -1)
    x = np.zeros((B, T, len(A)))
    x[..., :d] = b
    return np.ascontiguousarray(linear_scan(A.T if reverse else A, x, reverse)[..., :d])


def recurse_outputs(params: StuParams, g: np.ndarray) -> np.ndarray:
    """Resolve the output recursion over the increments: a parity prefix sum
    for the fixed y_{t-2} coupling, a scan on the companion form when M_y is
    learned."""
    if params.k_y == 0:
        return parity_cumsum(g)
    return _companion_scan(params, g, reverse=False)


def output_adjoint(params: StuParams, dy: np.ndarray) -> np.ndarray:
    """Adjoint of recurse_outputs: the increment gradient dL/dg from dL/dy.

    A reverse parity prefix sum for the fixed coupling; a reverse scan on the
    transposed companion form when M_y is learned.
    """
    if params.k_y == 0:
        return parity_cumsum(dy[:, ::-1])[:, ::-1]
    return _companion_scan(params, dy, reverse=True)


def _m_y_grads(params: StuParams, lam: np.ndarray, y: np.ndarray) -> np.ndarray:
    T = y.shape[1]
    dM_y = np.zeros_like(params.M_y)
    for i in range(1, min(params.k_y, T - 1) + 1):
        dM_y[i - 1] = _outer_sum(lam[:, i:], y[:, : T - i])
    return dM_y


def _check_layer(params: StuParams, bank: FilterBank, inputs) -> np.ndarray:
    inputs = _check_inputs(inputs, bank)
    if params.variant is not bank.variant:
        raise ValueError(f"params variant {params.variant} does not match bank {bank.variant}")
    if params.K > bank.K:
        raise ValueError(f"params need {params.K} filters but bank has {bank.K}")
    if inputs.shape[2] != params.d_in:
        raise ValueError(f"expected {params.d_in} input channels, got {inputs.shape[2]}")
    return inputs


def stack_m(params: StuParams) -> np.ndarray:
    """The (J, d_out, d_in) stack [M_u; M_phi_plus; M_phi_minus], one matrix
    per layer basis row (_layer_rows) and feature_streams stream."""
    return np.concatenate([params.M_u, params.M_phi_plus, params.M_phi_minus])


def split_m(M: np.ndarray, K: int) -> dict:
    """Name the blocks of a stack laid out as stack_m's, for K filters."""
    return {"M_u": M[:3], "M_phi_plus": M[3 : 3 + K], "M_phi_minus": M[3 + K :]}


def layer_grads(params: StuParams, dM: np.ndarray, lam: np.ndarray, y: np.ndarray) -> dict:
    """Every parameter gradient: the stacked gradient dM split by name, and
    M_y's from the increment adjoint lam and the outputs y when M_y is learned."""
    grads = split_m(dM, params.K)
    if params.k_y:
        grads["M_y"] = _m_y_grads(params, lam, y)
    return grads


def feature_streams(inputs: np.ndarray, su_plus, su_minus) -> np.ndarray:
    """The input convolved with each layer basis row, (batch, T, J, d_in),
    assembled from sigma^{1/4}-scaled features (featurize's, times
    sigma^{1/4}; su_minus is None for the alternative family): taps u_t,
    u_{t-1}, u_{t-2}, then the features delayed two steps.  Contracted with
    stack_m they give the increments g_t."""
    B, T, d_in = inputs.shape
    spectral = [su for su in (su_plus, su_minus) if su is not None]
    streams = np.zeros((B, T, 3 + sum(su.shape[2] for su in spectral), d_in))
    for lag in range(min(3, T)):
        streams[:, lag:, lag] = inputs[:, : T - lag]
    j = 3
    for su in spectral:
        streams[:, 2:, j : j + su.shape[2]] = su[:, : T - 2]
        j += su.shape[2]
    return streams


def _buffer(ws: dict | None, name: str, shape, dtype=np.float64) -> np.ndarray:
    """ws[name] when it has this shape and dtype, else a new array kept there.

    A caller that keeps ws across calls reuses the same memory every step
    instead of handing it back to the allocator and faulting it in again;
    without ws every array is fresh, so results that escape own their memory.
    The contents are undefined: callers write every element they read.
    """
    buf = None if ws is None else ws.get(name)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = np.empty(shape, dtype)
        if ws is not None:
            ws[name] = buf
    return buf


def _rfft(x: np.ndarray, n: int, ws, name: str) -> np.ndarray:
    """rfft at n along time of x (batch, T, channels), zero-padded in buffer
    name + "_pad".  With ws the transform's output is copied into buffer name
    and released at once, so no transient outlives the call; without it the
    output is returned as it is."""
    B, T, C = x.shape
    pad = _buffer(ws, name + "_pad", (B, n, C))
    pad[:, :T] = x
    pad[:, T:] = 0.0
    spectrum = sfft.rfft(pad, axis=1)
    if ws is None:
        return spectrum
    out = _buffer(ws, name, spectrum.shape, spectrum.dtype)
    out[...] = spectrum
    return out


def _bin_matrices(spectra: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The kernel spectrum W[f] = sum_j M[j] B_j[f] as one real
    (2 d_in, 2 d_out) matrix per bin on interleaved (re, im) pairs: with u
    the real view of a (batch, d_in) spectrum row, u @ W2[f] is the real view
    of U W[f]^T, and l @ W2[f]^T that of L conj(W[f])."""
    J, d_out, d_in = M.shape
    bins = spectra.shape[1]
    # Rows 2f and 2f + 1 of the real view's product are Re W[f] and Im W[f].
    Wri = (spectra.view(np.float64).T @ M.reshape(J, -1)).reshape(bins, 2, d_out, d_in)
    Wr, Wi = Wri[:, 0].transpose(0, 2, 1), Wri[:, 1].transpose(0, 2, 1)
    W2 = np.empty((bins, d_in, 2, d_out, 2))
    W2[:, :, 0, :, 0] = Wr
    W2[:, :, 0, :, 1] = Wi
    W2[:, :, 1, :, 0] = -Wi
    W2[:, :, 1, :, 1] = Wr
    return W2.reshape(bins, 2 * d_in, 2 * d_out)


def _apply_bins(xf: np.ndarray, W2: np.ndarray, n: int, T: int, ws, name: str) -> np.ndarray:
    """The first T steps of the irfft of the spectrum whose real view is
    xf's real view times W2[f] per bin, (batch, T, W2.shape[2] // 2): one
    real (batch x 2C)(2C x 2d) gemm per bin, written through a transposed
    view of a (batch, bins, d) spectrum so the inverse transform runs along
    axis 1 of a contiguous array.  With ws the result is copied into buffer
    name, as _rfft does; without it, it is a view of the transform's
    output."""
    B, bins, _ = xf.shape
    prod = _buffer(ws, name + "_f", (B, bins, W2.shape[2] // 2), np.complex128)
    np.matmul(xf.view(np.float64).transpose(1, 0, 2), W2,
              out=prod.view(np.float64).transpose(1, 0, 2))
    conv = sfft.irfft(prod, n, axis=1)[:, :T]
    if ws is None:
        return conv
    out = _buffer(ws, name, conv.shape)
    out[...] = conv
    return out


def spectral_forward(params: StuParams, bank: FilterBank, inputs: np.ndarray, ws=None):
    """The STU layer output (batch, T, d_out) and the cache spectral_backward needs.

    The output is one causal convolution of the input with the kernel
    h = sum_j M[j] basis[j], whose spectrum W[f] = sum_j M[j] B_j[f] is a
    (d_out, d_in) matrix per frequency bin, one product with the bank's
    cached basis spectra B.  With the fixed y_{t-2} coupling (k_y = 0) those
    are the spectra of the parity-summed basis, so the convolution gives y
    itself; with M_y learned it gives the increments g, and a scan on the
    companion form resolves y.  Spectra are batch-major, (batch, bins,
    channels), so the transforms run along the time axis of (batch, time,
    channels) arrays with no transpose.  ws, a dict the caller keeps across
    calls (_buffer), holds the large arrays, y among them, until the next
    call with the same ws; the cache passes it on to the backward pass.
    """
    x = _check_layer(params, bank, inputs)
    T = x.shape[1]
    n = _fft_length(T)
    spectra = _basis(bank, T, cumulative=params.k_y == 0)[_layer_rows(bank, params.K)]
    W2 = _bin_matrices(spectra, stack_m(params))
    xf = _rfft(x, n, ws, "xf")  # (B, bins, d_in)
    y = _apply_bins(xf, W2, n, T, ws, "y")
    if params.k_y:
        y = recurse_outputs(params, y)
    return y, {"y": y, "spectra": spectra, "W2": W2, "xf": xf, "n": n, "ws": ws}


def spectral_backward(params: StuParams, cache: dict, dy: np.ndarray):
    """Adjoint of spectral_forward: the input gradient and every parameter
    gradient, given dL/dy.

    With lam = dL/dy for the fixed coupling, or dL/dg from the reversed
    companion scan when M_y is learned, the input gradient is the
    correlation of lam with the kernel (conj(W) per bin).  The kernel
    gradient dL/dh[tau] = sum_t lam_t u_{t-tau}^T is the correlation of lam
    with the input, whose spectrum is C[f] = sum_b Lam[b, f] conj(U[b, f]);
    its projection on basis row j is, by Parseval,
    dM_j = (1/n) sum_f w_f Re(B_j[f] conj(C[f])), with w_f 1 at DC and
    Nyquist and 2 elsewhere.  That is exact: row j is zero past lag T - 1 and
    n >= 2T - 1, so no anticausal lag of the correlation lands in [0, T).
    Every product runs on real views of the spectra.
    """
    y, n, ws, spectra = cache["y"], cache["n"], cache["ws"], cache["spectra"]
    T = y.shape[1]
    d_out, d_in = params.d_out, params.d_in
    lam = output_adjoint(params, dy) if params.k_y else dy
    lf = _rfft(lam, n, ws, "lf")  # (B, bins, d_out)
    # Contiguous: numpy's per-bin gemm on the transposed view is slower.
    dx = _apply_bins(lf, np.ascontiguousarray(cache["W2"].transpose(0, 2, 1)), n, T, ws, "dx")
    # P[f] = sum_b of the real views' outer products, (d_out, re|im, d_in, re|im);
    # conj(C[f]) = (P_rr + P_ii) + i (P_ri - P_ir).
    P = (lf.view(np.float64).transpose(1, 2, 0) @ cache["xf"].view(np.float64).transpose(1, 0, 2))
    P = P.reshape(-1, d_out, 2, d_in, 2)
    w = np.full((len(P), 1, 1), 2.0 / n)
    w[[0, -1]] = 1.0 / n
    # Re(B conj(C)) = Re B Re conj(C) - Im B Im conj(C): two products over
    # the bins.  One product over the real view's interleaved 2 bins axis
    # rounded differently with OpenBLAS's thread count at the stack's shapes
    # (35 x 514 x 64), and took 4 ms on two threads against 0.07 on one.
    G = np.empty((2, len(P), d_out, d_in))
    G[0] = w * (P[:, :, 0, :, 0] + P[:, :, 1, :, 1])
    G[1] = w * (P[:, :, 1, :, 0] - P[:, :, 0, :, 1])
    G = G.reshape(2, len(P), -1)
    dM = np.ascontiguousarray(spectra.real) @ G[0] + np.ascontiguousarray(spectra.imag) @ G[1]
    return dx, layer_grads(params, dM.reshape(-1, d_out, d_in), lam, y)


def forward(params: StuParams, bank: FilterBank, inputs: np.ndarray) -> np.ndarray:
    """Layer output for any params: autoregressive, alternative, or vanilla,
    as params and bank say; spectral_forward's checks apply."""
    return spectral_forward(params, bank, inputs)[0]


def save_stu_params(params: StuParams, directory) -> Path:
    arrays = {name: arr for name, arr in params.named_arrays()}
    meta = {
        "kind": "stu_params",
        "variant": params.variant.value,
        "K": params.K,
        "d_in": params.d_in,
        "d_out": params.d_out,
        "k_y": params.k_y,
    }
    return save_arrays(directory, meta, arrays)


def load_stu_params(directory) -> StuParams:
    meta, arrays = load_arrays(directory)
    if meta.get("kind") != "stu_params":
        raise ValueError(f"not an STU parameter container: {directory}")
    return StuParams(
        variant=HankelVariant(meta["variant"]),
        K=int(meta["K"]),
        d_in=int(meta["d_in"]),
        d_out=int(meta["d_out"]),
        M_u=arrays["M_u"],
        M_phi_plus=arrays["M_phi_plus"],
        M_phi_minus=arrays["M_phi_minus"],
        M_y=arrays.get("M_y") if int(meta["k_y"]) else None,
    )
