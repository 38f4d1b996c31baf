"""Fixed spectral filter banks: the top eigenvectors of Hankel matrices.

Two Hankel variants are supported.  The primary matrix has entries
``2 / ((i+j)^3 - (i+j))`` and its eigenvectors capture geometric impulse
responses with decay rates in [0, 1].  The alternative matrix,
``((-1)^(i+j) + 1) * 8 / ((i+j+3)(i+j-1)(i+j+1))``, covers decay rates in
[-1, 1] with a single filter family.  Both are PSD with exponentially
decaying spectra, so a small number of top eigenvectors ("filters")
suffices as a convolution basis for marginally stable linear systems.

Each matrix is the second moment Z = int mu(alpha) mu(alpha)^T dalpha of the
impulse directions, so every bank, of either family and at every L, is the
SVD of one quadrature factor of Z (``compute_filterbank``).  The dense matrix
and the O(L log L) matrix-free product remain for checks and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

from .container import load_arrays, save_arrays

# Envelope for the eigenvalue decay: sigma_j <= DECAY_COEFF * exp(-DECAY_RATE * j / ln L).
DECAY_COEFF = 235200.0
DECAY_RATE = math.pi**2 / 4.0

# No dense L x L matrix is built at any L.  The name stays only because the
# benchmark's verify_long workload reads it to note the dense matrix bytes.
DENSE_EIGH_MAX = 0

_EIGEN_RESIDUAL_TOL = 1e-8
_ORTHOGONALITY_TOL = 1e-8


class HankelVariant(str, Enum):
    PRIMARY = "primary"
    ALTERNATIVE = "alternative"


def _as_variant(variant) -> HankelVariant:
    if isinstance(variant, HankelVariant):
        return variant
    return HankelVariant(str(variant).lower())


def _entry(s, variant: HankelVariant) -> np.ndarray:
    """Closed-form entry on the anti-diagonal i + j = s (1-based i, j),
    elementwise over s.  Every intermediate is an integer that float64 holds
    exactly while s^3 < 2^53, so the result does not depend on how s is built."""
    s = np.asarray(s, dtype=np.float64)
    if _as_variant(variant) is HankelVariant.PRIMARY:
        return 2.0 / (s**3 - s)
    return ((-1.0) ** s + 1.0) * 8.0 / ((s + 3.0) * (s - 1.0) * (s + 1.0))


def hankel_entry(i: int, j: int, variant: HankelVariant = HankelVariant.PRIMARY) -> float:
    """Closed-form Hankel entry at 1-based indices (i, j)."""
    if i < 1 or j < 1:
        raise ValueError(f"indices must be >= 1, got ({i}, {j})")
    return float(_entry(i + j, variant))


def hankel_matrix(L: int, variant: HankelVariant = HankelVariant.PRIMARY) -> np.ndarray:
    """Dense L x L Hankel matrix. Quadratic memory; prefer hankel_matvec at scale."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    idx = np.arange(1, L + 1)
    return _entry(idx[:, None] + idx[None, :], variant)


def _symbol(L: int, variant: HankelVariant) -> np.ndarray:
    """Anti-diagonal symbol w[u] = entry(i + j = u + 2), u in [0, 2L-2]."""
    return _entry(np.arange(2, 2 * L + 1), variant)


def hankel_matvec(L: int, variant: HankelVariant, v: np.ndarray) -> np.ndarray:
    """Matrix-free product Z @ v in O(L log L), for one vector of shape (L,)
    or each row of a (n, L) block.

    A Hankel matrix is constant along anti-diagonals, so the product is a
    correlation with the entry symbol, evaluated here as an FFT convolution
    against the reversed vector.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != L:
        raise ValueError(f"expected shape ({L},) or (n, {L}), got {v.shape}")
    w = _symbol(L, variant)
    # out[a] = sum_b w[a + b] v[b] = fullconv(w, reversed v)[a + L - 1]
    return fftconvolve(w[(None,) * (v.ndim - 1)], v[..., ::-1], axes=-1)[..., L - 1 : 2 * L - 1]


def _fix_signs(phi: np.ndarray) -> np.ndarray:
    """Flip each row so its first non-negligible component is positive."""
    out = phi.copy()
    for k in range(out.shape[0]):
        row = out[k]
        thresh = 1e-8 * np.abs(row).max()
        lead = row[np.abs(row) > thresh]
        if lead.size and lead[0] < 0:
            out[k] = -row
    return out


@dataclass(frozen=True)
class FilterBank:
    """Top-K eigenpairs of a Hankel variant; immutable and shareable.

    sigma is descending and non-negative; phi rows are unit-norm eigenvectors
    with a first-nonzero-positive sign convention.
    """

    L: int
    K: int
    variant: HankelVariant
    sigma: np.ndarray  # (K,)
    phi: np.ndarray  # (K, L), row k is the k-th filter

    @cached_property
    def scaled_phi(self) -> np.ndarray:
        """Filters premultiplied by sigma^{1/4}, the scale used in forward passes."""
        return self.sigma[:, None] ** 0.25 * self.phi

    @cached_property
    def spectra(self) -> dict:  # layer basis rffts per (length, cumulative), filled by stu._basis
        return {}

    def head(self, K: int) -> "FilterBank":
        """Bank restricted to the strongest K filters."""
        if not 1 <= K <= self.K:
            raise ValueError(f"K must be in [1, {self.K}], got {K}")
        if K == self.K:
            return self
        return FilterBank(self.L, K, self.variant, self.sigma[:K], self.phi[:K])

    def validate(self) -> None:
        """Re-check eigen-residuals, orthogonality, and the spectral decay envelope."""
        if self.sigma.shape != (self.K,) or self.phi.shape != (self.K, self.L):
            raise ValueError("inconsistent filter bank shapes")
        if np.any(np.diff(self.sigma) > 0) or np.any(self.sigma < 0):
            raise ValueError("eigenvalues must be descending and non-negative")
        top = max(1.0, float(self.sigma[0]) if self.K else 1.0)
        resid = hankel_matvec(self.L, self.variant, self.phi) - self.sigma[:, None] * self.phi
        bad = np.linalg.norm(resid, axis=1) > _EIGEN_RESIDUAL_TOL * top
        if bad.any():
            raise ValueError(f"eigen-residual too large for filter {int(np.argmax(bad)) + 1}")
        gram = self.phi @ self.phi.T
        np.fill_diagonal(gram, 0.0)
        if np.abs(gram).max() > _ORTHOGONALITY_TOL:
            raise ValueError("filters are not pairwise orthogonal")
        # Noise allowance: deep in the tail the envelope falls below the rounding
        # floor of the computed eigenvalues.
        bound = eigenvalue_decay_bound(np.arange(1, self.K + 1), self.L)
        slack = 64 * self.L * np.finfo(np.float64).eps * top
        if np.any(self.sigma > bound + slack):
            j = int(np.argmax(self.sigma > bound + slack)) + 1
            raise ValueError(f"eigenvalue {j} violates the spectral decay envelope")


def eigenvalue_decay_bound(j, L: int) -> np.ndarray:
    """Decay envelope DECAY_COEFF * exp(-DECAY_RATE * j / ln L) for eigenvalue index j.

    Degenerate at L = 1 (ln L = 0), where the envelope carries no information;
    returns +inf there.
    """
    j = np.asarray(j, dtype=np.float64)
    if L <= 1:
        return np.full_like(j, np.inf)
    return DECAY_COEFF * np.exp(-DECAY_RATE * j / math.log(L))


def _quadrature_rule(L: int, K: int, variant: HankelVariant):
    """Nodes and weights of the graded composite Gauss-Legendre rule.

    Panels [0, 1/2], [1/2, 3/4], ... halve toward alpha = 1 until the width
    is at most 1/(8L), then [1 - w, 1] closes the interval; the alternative
    family mirrors them onto [-1, 0].  The impulse directions vary on the
    scale 1 - alpha ~ 1/L, so the panels resolve them at every L with
    m = max(m0, ceil(K / panels)) nodes each, and Q >= K.  m0 is 16 for the
    primary family.  The alternative spectrum decays about half as fast
    (sigma_k / sigma_{k+1} near 2.6 rather than 5.5 at sigma_k ~ 1e-20
    sigma_1), so the same depth holds twice the filters; 16 nodes a panel
    miss its filter 53 at L = 469 by 2e-6, so its m0 is 20.
    """
    J = int(8 * L - 1).bit_length()  # 2^-J <= 1/(8L)
    edges = np.append(1.0 - 0.5 ** np.arange(J + 1), 1.0)
    a, b = edges[:-1], edges[1:]
    m0 = 16
    if variant is HankelVariant.ALTERNATIVE:
        a, b, m0 = np.concatenate([a, -b]), np.concatenate([b, -a]), 20
    x, w = np.polynomial.legendre.leggauss(max(m0, -(-K // a.size)))
    half = (b - a)[:, None] / 2
    return ((a + b)[:, None] / 2 + half * x).ravel(), (half * w).ravel()


def compute_filterbank(L: int, K: int, variant: HankelVariant = HankelVariant.PRIMARY) -> FilterBank:
    """Construct the filter bank of the top-K eigenpairs at length L.

    Z = int mu(alpha) mu(alpha)^T dalpha, so the quadrature factor
    V[i, q] = mu_i(alpha_q) sqrt(w_q) has Z ~ V V^T: the filters are the
    left singular vectors of V and sigma_k = s_k^2.  An SVD of the factor
    resolves sigma_k far below the eps * sigma_1 floor of an eigensolve of
    Z, with no L x L matrix built.  The result is deterministic: eigenvalues
    descending, each filter's first nonzero component positive.
    """
    variant = _as_variant(variant)
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if not 1 <= K <= L:
        raise ValueError(f"K must be in [1, L={L}], got {K}")
    alpha, w = _quadrature_rule(L, K, variant)
    lead = alpha - 1.0 if variant is HankelVariant.PRIMARY else alpha**2 - 1.0
    V = np.power(alpha, np.arange(L)[:, None]) * (lead * np.sqrt(w))
    U, s, _ = np.linalg.svd(V, full_matrices=False)
    phi = _fix_signs(np.ascontiguousarray(U[:, :K].T))
    bank = FilterBank(L=L, K=K, variant=variant, sigma=s[:K] ** 2, phi=phi)
    bank.validate()
    return bank


def mu_vector(alpha: float, L: int, variant: HankelVariant = HankelVariant.PRIMARY) -> np.ndarray:
    """Impulse-response direction of a mode with decay rate alpha, length L.

    Primary: (alpha - 1) * alpha^i for i = 0..L-1, alpha in [0, 1].
    Alternative: (alpha^2 - 1) * alpha^i, alpha in [-1, 1].
    Squared norm is <= 1 in both cases.
    """
    variant = _as_variant(variant)
    if variant is HankelVariant.PRIMARY:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1] for the primary variant, got {alpha}")
        lead = alpha - 1.0
    else:
        if not -1.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [-1, 1] for the alternative variant, got {alpha}")
        lead = alpha**2 - 1.0
    return lead * np.power(float(alpha), np.arange(L))  # 0^0 = 1


def projection_residual(bank: FilterBank, alpha: float) -> float:
    """Squared norm of mu(alpha) left outside the bank's filter span."""
    mu = mu_vector(alpha, bank.L, bank.variant)
    coef = bank.phi @ mu
    resid = mu - bank.phi.T @ coef
    return float(resid @ resid)


# ---------------------------------------------------------------------------
# On disk: a container (manifest.json + payload.f64le) of kind "filterbank"
# holding sigma and phi.  Loads verify the payload checksum and the
# eigen-residuals.
# ---------------------------------------------------------------------------


def save_filterbank(bank: FilterBank, directory) -> Path:
    meta = {"kind": "filterbank", "L": bank.L, "K": bank.K, "variant": bank.variant.value}
    return save_arrays(directory, meta, {"sigma": bank.sigma, "phi": bank.phi})


def load_filterbank(directory) -> FilterBank:
    meta, arrays = load_arrays(directory)
    if meta.get("kind") != "filterbank":
        raise ValueError(f"not a filter bank container: {directory}")
    bank = FilterBank(L=int(meta["L"]), K=int(meta["K"]), variant=HankelVariant(meta["variant"]),
                      sigma=arrays["sigma"], phi=arrays["phi"])
    bank.validate()
    return bank
