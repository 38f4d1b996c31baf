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
h = sum_j M[j] basis[j]: M stacks M_u, M_plus and M_minus, and basis holds
the matching lag profiles (unit impulses at lags 0, 1, 2 and the scaled
filters delayed by two lags).  spectral_forward builds h with one matrix
product, takes its spectrum W[f] = sum_j M[j] B_j[f], a (d_out, d_in) matrix
per frequency bin, and applies it to the input spectrum as a matmul batched
over bins, so no (batch, time, K, channel) tensor is ever built.
spectral_backward is the one adjoint: the output recursion runs backwards (a
reverse parity prefix sum, or backprop through time when M_y is learned), the
input gradient is the correlation with the kernel (conj(W) per bin), and the
parameter gradients come from the Parseval pairing of the adjoint spectrum
with the input spectrum, Lam[f] conj(U[f]), taken back to lags and projected
on each basis row.  Every contraction is a matmul.

forward, stu_forward, alt_stu_forward, ar_stu_forward and the stack all run
through this pair.  Features are still materialized by featurize and
naive_featurize (the oracles), and by scaled_features for the trainer's
least-squares fit and its feature-cached gradient steps, which contract
precomputed features in increments_from_features and share the kernel's
output recursion and its adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import load_arrays, save_arrays
from .filterbank import FilterBank, HankelVariant, _as_variant


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

    def copy(self) -> "StuParams":
        return StuParams(
            variant=self.variant,
            K=self.K,
            d_in=self.d_in,
            d_out=self.d_out,
            M_u=self.M_u.copy(),
            M_phi_plus=self.M_phi_plus.copy(),
            M_phi_minus=self.M_phi_minus.copy(),
            M_y=None if self.M_y is None else self.M_y.copy(),
        )


@dataclass
class SpectralFeatures:
    """Filter projections of an input batch; both tensors are (batch, time, K, d_in)."""

    U_plus: np.ndarray
    U_minus: np.ndarray


def _check_inputs(inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ValueError(f"expected inputs of shape (batch, time, channels), got {inputs.shape}")
    return inputs


def _fft_length(L: int) -> int:
    # Next power of two >= 2L - 1: unambiguous linear convolution.
    return 1 << (2 * L - 2).bit_length() if L > 1 else 1


# Chunk FFT work over the filter axis so transient spectra stay a few MB;
# monolithic (batch, bins, K, C) tensors cross glibc's mmap threshold and make
# the wall time allocation-bound and erratic.
_CHUNK_BYTES = 4 << 20


def _filter_chunk(bins: int, B: int, C: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * bins * B * C))


def convolve_filters(filters: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Causal convolution of each channel with each filter row, via FFT.

    filters: (K, L); inputs: (batch, T, C) with T <= L.
    Returns (batch, T, K, C) where out[b, t, k, c] = sum_i inputs[b, t - i, c] * filters[k, i].
    """
    B, T, C = inputs.shape
    K, L = filters.shape
    n = _fft_length(max(L, T))
    Uf = np.fft.rfft(inputs, n=n, axis=1)
    Ff = np.fft.rfft(filters, n=n, axis=1)
    out = np.empty((B, T, K, C))
    step = _filter_chunk(Uf.shape[1], B, C)
    for k0 in range(0, K, step):
        prod = Uf[:, :, None, :] * Ff[k0 : k0 + step].T[None, :, :, None]
        out[:, :, k0 : k0 + step] = np.fft.irfft(prod, n=n, axis=1)[:, :T]
    return out


def _alternating(filters: np.ndarray) -> np.ndarray:
    signs = (-1.0) ** np.arange(filters.shape[1])
    return filters * signs


def featurize(bank: FilterBank, inputs: np.ndarray) -> SpectralFeatures:
    """FFT featurization against the bank's (unscaled) filters."""
    inputs = _check_inputs(inputs)
    if inputs.shape[1] > bank.L:
        raise ValueError(f"sequence length {inputs.shape[1]} exceeds bank length {bank.L}")
    both = np.concatenate([bank.phi, _alternating(bank.phi)], axis=0)
    out = convolve_filters(both, inputs)
    return SpectralFeatures(U_plus=out[:, :, : bank.K], U_minus=out[:, :, bank.K :])


def naive_featurize(bank: FilterBank, inputs: np.ndarray) -> SpectralFeatures:
    """Reference O(L^2) featurization by direct summation."""
    inputs = _check_inputs(inputs)
    B, T, C = inputs.shape
    if T > bank.L:
        raise ValueError(f"sequence length {T} exceeds bank length {bank.L}")
    U_plus = np.zeros((B, T, bank.K, C))
    U_minus = np.zeros((B, T, bank.K, C))
    signs = (-1.0) ** np.arange(bank.L)
    for t in range(T):
        window = inputs[:, t::-1]  # u_t, u_{t-1}, ..., u_0
        U_plus[:, t] = np.einsum("bic,ki->bkc", window, bank.phi[:, : t + 1])
        U_minus[:, t] = np.einsum(
            "bic,ki->bkc", window, (bank.phi * signs)[:, : t + 1]
        )
    return SpectralFeatures(U_plus=U_plus, U_minus=U_minus)


def scaled_features(bank: FilterBank, K: int, inputs: np.ndarray):
    """sigma^{1/4}-scaled plus/minus feature tensors, (batch, T, K, d_in) each,
    for the bank's first K filters; the minus tensor is None for the
    alternative family."""
    scaled = bank.scaled_phi[:K]
    if bank.variant is HankelVariant.PRIMARY:
        both = convolve_filters(np.concatenate([scaled, _alternating(scaled)]), inputs)
        return both[:, :, :K], both[:, :, K:]
    return convolve_filters(scaled, inputs), None


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over batch and time of a_t b_t^T: (B, T, m), (B, T, n) -> (m, n)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def increments_from_features(params: StuParams, inputs, su_plus, su_minus) -> np.ndarray:
    """Per-step increment g_t from precomputed scaled feature tensors."""
    B, T, _ = inputs.shape
    g = inputs @ params.M_u[0].T
    if T > 1:
        g[:, 1:] += inputs[:, :-1] @ params.M_u[1].T
    if T > 2:
        g[:, 2:] += inputs[:, :-2] @ params.M_u[2].T
        for su, M in ((su_plus, params.M_phi_plus), (su_minus, params.M_phi_minus)):
            if su is not None:
                g[:, 2:] += np.tensordot(su[:, : T - 2], M, axes=([2, 3], [0, 2]))
    return g


def _parity_cumsum(g: np.ndarray) -> np.ndarray:
    out = g.copy()
    out[:, 0::2] = np.cumsum(out[:, 0::2], axis=1)
    out[:, 1::2] = np.cumsum(out[:, 1::2], axis=1)
    return out


def recurse_outputs(params: StuParams, g: np.ndarray) -> np.ndarray:
    """Resolve the output recursion over the increments: a parity prefix sum
    for the fixed y_{t-2} coupling, a sequential scan when M_y is learned."""
    if params.k_y == 0:
        return _parity_cumsum(g)
    B, T, _ = g.shape
    y = np.zeros_like(g)
    for t in range(T):
        acc = g[:, t]
        for i in range(1, min(params.k_y, t) + 1):
            acc = acc + y[:, t - i] @ params.M_y[i - 1].T
        y[:, t] = acc
    return y


def output_adjoint(params: StuParams, dy: np.ndarray) -> np.ndarray:
    """Adjoint of recurse_outputs: the increment gradient dL/dg from dL/dy.

    A reverse parity prefix sum for the fixed coupling; backprop through time
    over the last k_y outputs when M_y is learned.
    """
    if params.k_y == 0:
        return _parity_cumsum(dy[:, ::-1])[:, ::-1]
    T = dy.shape[1]
    lam = np.zeros_like(dy)
    for t in range(T - 1, -1, -1):
        acc = dy[:, t].copy()
        for i in range(1, min(params.k_y, T - 1 - t) + 1):
            acc += lam[:, t + i] @ params.M_y[i - 1]
        lam[:, t] = acc
    return lam


def _m_y_grads(params: StuParams, lam: np.ndarray, y: np.ndarray) -> np.ndarray:
    T = y.shape[1]
    dM_y = np.zeros_like(params.M_y)
    for i in range(1, min(params.k_y, T - 1) + 1):
        dM_y[i - 1] = _outer_sum(lam[:, i:], y[:, : T - i])
    return dM_y


def tap_grads(params: StuParams, lam: np.ndarray, inputs: np.ndarray, y: np.ndarray) -> dict:
    """Gradients of every parameter array from the increment adjoint lam, for
    increments contracted from precomputed features: M_u and M_y are filled
    in, the spectral matrices are left at zero for the caller."""
    T = inputs.shape[1]
    grads = {
        "M_u": np.zeros_like(params.M_u),
        "M_phi_plus": np.zeros_like(params.M_phi_plus),
        "M_phi_minus": np.zeros_like(params.M_phi_minus),
    }
    for i in range(min(3, T)):
        grads["M_u"][i] = _outer_sum(lam[:, i:], inputs[:, : T - i])
    if params.k_y:
        grads["M_y"] = _m_y_grads(params, lam, y)
    return grads


def _check_layer(params: StuParams, bank: FilterBank, inputs) -> np.ndarray:
    inputs = _check_inputs(inputs)
    if params.variant is not bank.variant:
        raise ValueError(f"params variant {params.variant} does not match bank {bank.variant}")
    if params.K > bank.K:
        raise ValueError(f"params need {params.K} filters but bank has {bank.K}")
    if inputs.shape[1] > bank.L:
        raise ValueError(f"sequence length {inputs.shape[1]} exceeds bank length {bank.L}")
    if inputs.shape[2] != params.d_in:
        raise ValueError(f"expected {params.d_in} input channels, got {inputs.shape[2]}")
    return inputs


def _layer_basis(params: StuParams, bank: FilterBank, T: int) -> np.ndarray:
    """(3 + n_filters, T) lag profiles, one per stacked parameter matrix:
    unit impulses at lags 0, 1 and 2 for M_u, then the scaled filters (and
    their alternating-sign copies) delayed by two lags for M_phi."""
    filters = bank.scaled_phi[: params.K, : max(T - 2, 0)]
    if params.variant is HankelVariant.PRIMARY:
        filters = np.concatenate([filters, _alternating(filters)])
    basis = np.zeros((3 + len(filters), T))
    basis[:3] = np.eye(3, T)
    basis[3:, 2:] = filters
    return basis


def spectral_forward(params: StuParams, bank: FilterBank, inputs: np.ndarray):
    """The STU layer output (batch, T, d_out) and the cache spectral_backward needs.

    The increments g_t are one causal convolution of the input with the
    kernel h = sum_j M[j] basis[j] (taps and spectral term together), whose
    spectrum W[f] is a (d_out, d_in) matrix per frequency bin.  Spectra are
    kept frequency-major, (bins, batch, channels), so applying W is a matmul
    batched over bins.
    """
    x = _check_layer(params, bank, inputs)
    T = x.shape[1]
    n = _fft_length(T)
    basis = _layer_basis(params, bank, T)
    M = np.concatenate([params.M_u, params.M_phi_plus, params.M_phi_minus])
    h = basis.T @ M.reshape(len(M), -1)  # (T, d_out * d_in)
    W = np.fft.rfft(h, n=n, axis=0).reshape(-1, params.d_out, params.d_in)
    xf = np.fft.rfft(x.transpose(1, 0, 2), n=n, axis=0)  # (bins, B, d_in)
    g = np.fft.irfft(xf @ W.transpose(0, 2, 1), n=n, axis=0)[:T].transpose(1, 0, 2)
    y = recurse_outputs(params, g)
    return y, {"y": y, "basis": basis, "W": W, "xf": xf, "n": n}


def spectral_backward(params: StuParams, cache: dict, dy: np.ndarray):
    """Adjoint of spectral_forward: the input gradient and every parameter
    gradient, given dL/dy.

    With lam = dL/dg from the reversed output recursion, the input gradient
    is the correlation of lam with the kernel (conj(W) per bin), and the
    kernel gradient dL/dh[tau] = sum_t lam_t u_{t-tau}^T is the correlation
    of lam with the input (Lam conj(U) per bin), projected on each basis row.
    """
    y, n = cache["y"], cache["n"]
    T = y.shape[1]
    lam = output_adjoint(params, dy)
    lf = np.fft.rfft(lam.transpose(1, 0, 2), n=n, axis=0)  # (bins, B, d_out)
    dx = np.fft.irfft(lf @ cache["W"].conj(), n=n, axis=0)[:T].transpose(1, 0, 2)
    dh = np.fft.irfft(lf.transpose(0, 2, 1) @ cache["xf"].conj(), n=n, axis=0)[:T]
    dM = (cache["basis"] @ dh.reshape(T, -1)).reshape(-1, params.d_out, params.d_in)
    grads = {
        "M_u": dM[:3],
        "M_phi_plus": dM[3 : 3 + params.K],
        "M_phi_minus": dM[3 + params.K :],
    }
    if params.k_y:
        grads["M_y"] = _m_y_grads(params, lam, y)
    return dx, grads


def forward(params: StuParams, bank: FilterBank, inputs: np.ndarray) -> np.ndarray:
    """Layer output for any params: autoregressive, alternative, or vanilla."""
    return spectral_forward(params, bank, inputs)[0]


def stu_forward(params: StuParams, bank: FilterBank, inputs: np.ndarray) -> np.ndarray:
    """Vanilla forward pass (primary variant, fixed y_{t-2} coupling)."""
    if params.variant is not HankelVariant.PRIMARY:
        raise ValueError("stu_forward requires the primary variant")
    if params.M_y is not None:
        raise ValueError("params carry M_y; use ar_stu_forward")
    return forward(params, bank, inputs)


def ar_stu_forward(params: StuParams, bank: FilterBank, inputs: np.ndarray) -> np.ndarray:
    """Forward pass with learned autoregression over the last k_y outputs."""
    if params.M_y is None or params.k_y < 1:
        raise ValueError("ar_stu_forward requires M_y with k_y >= 1")
    return forward(params, bank, inputs)


def alt_stu_forward(params: StuParams, bank: FilterBank, inputs: np.ndarray) -> np.ndarray:
    """Forward pass for the alternative filter family (single M_phi set)."""
    if params.variant is not HankelVariant.ALTERNATIVE:
        raise ValueError("alt_stu_forward requires the alternative variant")
    if bank.variant is not HankelVariant.ALTERNATIVE:
        raise ValueError("alt_stu_forward requires an alternative-variant bank")
    if params.M_y is not None:
        raise ValueError("params carry M_y; use ar_stu_forward")
    return forward(params, bank, inputs)


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
