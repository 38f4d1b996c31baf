"""Fixed spectral filter banks built from Hankel matrix eigendecompositions.

Two Hankel variants are supported.  The primary matrix has entries
``2 / ((i+j)^3 - (i+j))`` and its eigenvectors capture geometric impulse
responses with decay rates in [0, 1].  The alternative matrix,
``((-1)^(i+j) + 1) * 8 / ((i+j+3)(i+j-1)(i+j+1))``, covers decay rates in
[-1, 1] with a single filter family.  Both are PSD with exponentially
decaying spectra, so a small number of top eigenvectors ("filters")
suffices as a convolution basis for marginally stable linear systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.linalg import eigh
from scipy.signal import fftconvolve

from .container import load_arrays, save_arrays

# Envelope for the eigenvalue decay: sigma_j <= DECAY_COEFF * exp(-DECAY_RATE * j / ln L).
DECAY_COEFF = 235200.0
DECAY_RATE = math.pi**2 / 4.0

# Largest L for which we build the dense matrix and call LAPACK directly.
# Beyond this the matrix-free Lanczos path is used (O(L log L) per product).
DENSE_EIGH_MAX = 4096

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
    """Matrix-free product Z @ v in O(L log L).

    A Hankel matrix is constant along anti-diagonals, so the product is a
    correlation with the entry symbol, evaluated here as an FFT convolution
    against the reversed vector.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (L,):
        raise ValueError(f"expected vector of shape ({L},), got {v.shape}")
    w = _symbol(L, variant)
    # out[a] = sum_b w[a + b] v[b] = fullconv(w, reversed v)[a + L - 1]
    return fftconvolve(w, v[::-1])[L - 1 : 2 * L - 1]


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
    def spectra(self) -> dict:  # layer basis rfft per sequence length, filled by stu._basis
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
        for k in range(self.K):
            resid = hankel_matvec(self.L, self.variant, self.phi[k]) - self.sigma[k] * self.phi[k]
            if np.linalg.norm(resid) > _EIGEN_RESIDUAL_TOL * top:
                raise ValueError(f"eigen-residual too large for filter {k + 1}")
        gram = self.phi @ self.phi.T
        np.fill_diagonal(gram, 0.0)
        if np.abs(gram).max() > _ORTHOGONALITY_TOL:
            raise ValueError("filters are not pairwise orthogonal")
        # Noise allowance: trailing eigenvalues of a full decomposition sit at the
        # float64 floor (~1e-19 here), which can exceed the envelope deep in the tail.
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


def _lanczos_topk(L: int, variant: HankelVariant, K: int, max_iter: int = 0, seed: int = 7):
    """Top-K eigenpairs via Lanczos with full reorthogonalization.

    Matrix access is only through hankel_matvec.  The exponentially decaying,
    well-separated spectrum makes convergence fast; Ritz residuals are checked
    explicitly via |beta_m * s[-1]|.
    """
    if max_iter <= 0:
        max_iter = min(L, max(4 * K + 40, 80))
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(L)
    q /= np.linalg.norm(q)
    Q = np.empty((max_iter, L))
    alphas = np.empty(max_iter)
    betas = np.empty(max_iter)
    m = 0
    top = None
    while m < max_iter:
        Q[m] = q
        u = hankel_matvec(L, variant, q)
        alphas[m] = q @ u
        r = u - alphas[m] * q
        if m > 0:
            r -= betas[m - 1] * Q[m - 1]
        # Full reorthogonalization: the tiny trailing eigenvalues otherwise
        # reintroduce converged directions through rounding.
        r -= Q[: m + 1].T @ (Q[: m + 1] @ r)
        r -= Q[: m + 1].T @ (Q[: m + 1] @ r)
        beta = np.linalg.norm(r)
        betas[m] = beta
        m += 1
        if m >= min(K + 2, L) and (m % 8 == 0 or beta < 1e-14 or m == max_iter):
            T = np.diag(alphas[:m]) + np.diag(betas[: m - 1], 1) + np.diag(betas[: m - 1], -1)
            theta, S = eigh(T)
            theta, S = theta[::-1], S[:, ::-1]
            resids = beta * np.abs(S[-1, :K])
            top = max(1.0, theta[0])
            if np.all(resids <= 1e-10 * top):
                phi = (Q[:m].T @ S[:, :K]).T
                phi /= np.linalg.norm(phi, axis=1, keepdims=True)
                return theta[:K], phi, m
        if beta < 1e-14:
            # Breakdown: the Krylov space is invariant and the rest of the
            # spectrum sits at the noise floor.  Fewer than K pairs are known,
            # so go on from a fresh direction orthogonal to the space; T
            # becomes block diagonal.
            r = rng.standard_normal(L)
            r -= Q[:m].T @ (Q[:m] @ r)
            r -= Q[:m].T @ (Q[:m] @ r)
            betas[m - 1] = 0.0
            beta = np.linalg.norm(r)
        q = r / beta
    raise RuntimeError(f"Lanczos eigensolver did not converge after {m} iterations (L={L}, K={K})")


def compute_filterbank(
    L: int,
    K: int,
    variant: HankelVariant = HankelVariant.PRIMARY,
    method: str = "auto",
) -> FilterBank:
    """Construct the filter bank of the top-K eigenpairs at length L.

    ``method`` is "auto" (dense LAPACK for L <= 4096, Lanczos beyond), "dense",
    or "lanczos".  The result is deterministic: eigenvalues descending, each
    filter's first nonzero component positive.
    """
    variant = _as_variant(variant)
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if not 1 <= K <= L:
        raise ValueError(f"K must be in [1, L={L}], got {K}")
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense" or (method == "auto" and L <= DENSE_EIGH_MAX):
        Z = hankel_matrix(L, variant)
        sigma, vecs = eigh(Z, subset_by_index=[L - K, L - 1])
        sigma = sigma[::-1]
        phi = vecs[:, ::-1].T
    else:
        sigma, phi, _ = _lanczos_topk(L, variant, K)
    # Deep eigenvalues underflow the solver's noise level (eps * sigma_1) and can
    # come back tiny-negative; floor them there so the sigma^{+-1/4} factorization
    # stays defined without exceeding the measurement uncertainty.
    sigma = np.maximum(sigma, np.finfo(np.float64).eps * max(float(sigma[0]), 0.0))
    phi = _fix_signs(np.ascontiguousarray(phi))
    bank = FilterBank(L=L, K=K, variant=variant, sigma=sigma, phi=phi)
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
    powers = np.ones(L) if alpha == 0.0 else np.power(float(alpha), np.arange(L))
    if alpha == 0.0 and L > 1:
        powers[1:] = 0.0  # 0^0 = 1, higher powers vanish
    return lead * powers


def projection_residual(bank: FilterBank, alpha: float) -> float:
    """Squared norm of mu(alpha) left outside the bank's filter span."""
    mu = mu_vector(alpha, bank.L, bank.variant)
    coef = bank.phi @ mu
    resid = mu - bank.phi.T @ coef
    return float(resid @ resid)


# ---------------------------------------------------------------------------
# On-disk cache: a container (manifest.json + payload.f64le) of kind
# "filterbank" holding sigma and phi.  Loads verify the payload checksum and
# the eigen-residuals.
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


def cache_key(L: int, K: int, variant: HankelVariant) -> str:
    return f"{_as_variant(variant).value}-L{L}-K{K}"
