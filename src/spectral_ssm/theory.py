"""Constructive representation checks: build STU parameters from a known
symmetric LDS, evaluate the approximation against the analytic error bound,
and realize the exact finite autoregression implied by the characteristic
polynomial of the state matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .filterbank import FilterBank, HankelVariant, mu_vector
from .lds import LdsParams, markov_params, simulate_lds
from .stu import StuParams, forward

# Universal constants of the approximation bound, per filter family.
BOUND_CONSTANT = {HankelVariant.PRIMARY: 2e6, HankelVariant.ALTERNATIVE: 1e6}

_RADIUS_SLACK = 1e-12


@dataclass(frozen=True)
class TheoremBoundInputs:
    K: int
    L: int
    a: float  # input norm bound
    b_col: float  # max column norm of B
    c_col: float  # max column norm of C
    c_const: float  # universal constant (2e6 primary, 1e6 alternative)

    def __post_init__(self):
        if min(self.K, self.L) < 1 or min(self.a, self.b_col, self.c_col, self.c_const) <= 0:
            raise ValueError("all bound inputs must be positive")


def theorem_bound(inp: TheoremBoundInputs) -> float:
    """c * |B|_col * |C|_col * L^3 * a * exp(-(pi^2/4) K / ln L)."""
    decay = np.exp(-(np.pi**2 / 4.0) * inp.K / np.log(inp.L))
    return float(inp.c_const * inp.b_col * inp.c_col * inp.L**3 * inp.a * decay)


def _eigenbasis(lds: LdsParams):
    """Eigenvalues of A with B, C expressed in A's eigenbasis.

    Diagonal A is taken as-is; dense symmetric A is rotated so each mode l
    pairs eigenvalue alpha_l with row b_l of B and column c_l of C.
    """
    if lds.diagonal:
        return lds.A.copy(), lds.B.copy(), lds.C.copy()
    alphas, V = np.linalg.eigh(lds.A)
    return alphas, V.T @ lds.B, lds.C @ V


def _check_theorem_system(lds: LdsParams) -> None:
    if lds.spectral_radius() > 1.0 + _RADIUS_SLACK:
        raise ValueError(f"spectral radius {lds.spectral_radius():.6g} exceeds 1")


def _m_u(lds: LdsParams) -> np.ndarray:
    CB = lds.C @ lds.B
    CAB = (lds.C * lds.A) @ lds.B if lds.diagonal else lds.C @ lds.A @ lds.B
    return np.stack([CB + lds.D, CAB, -lds.D])


def stu_from_lds(lds: LdsParams, bank: FilterBank, K: int) -> StuParams:
    """STU parameters for the bank's filter family that reproduce the LDS up
    to the projection residual.

    Input taps are CB + D, CAB, -D.  Each spectral matrix collects the rank-one
    modes c_l (x) b_l weighted by the filter overlap of the mode's impulse
    direction.  The primary family splits positive and negative eigenvalues
    between the plus and minus matrices; the alternative family's single set
    takes every eigenvalue.  Requires a bank with at least K filters.
    """
    if K > bank.K:
        raise ValueError(f"requested {K} filters but bank has {bank.K}")
    _check_theorem_system(lds)
    alphas, Bp, Cp = _eigenbasis(lds)
    sub = bank.head(K)
    if sub.sigma[-1] <= 0:
        raise ValueError("bank eigenvalues underflow; reduce K")
    scale = sub.sigma**-0.25
    params = StuParams.zeros(K, lds.d_in, lds.d_out, variant=bank.variant)
    params.M_u[:] = _m_u(lds)
    primary = bank.variant is HankelVariant.PRIMARY
    for l, alpha in enumerate(alphas):
        # The radius check admits 1 + 1e-12 of rescaling roundoff; clip into
        # the impulse direction's domain.
        if primary:
            a = min(abs(float(alpha)), 1.0)
            weight = (a + 1.0) * (sub.phi @ mu_vector(a, bank.L, bank.variant)) * scale
        else:
            a = min(max(float(alpha), -1.0), 1.0)
            weight = (sub.phi @ mu_vector(a, bank.L, bank.variant)) * scale
        contrib = weight[:, None, None] * np.outer(Cp[:, l], Bp[l])[None]
        if primary and alpha < 0:
            params.M_phi_minus += contrib
        else:
            params.M_phi_plus += contrib
    return params


def max_column_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, axis=0).max())


@dataclass(frozen=True)
class ApproximationReport:
    max_err: float
    per_t_err: np.ndarray  # (time,) worst-over-batch output-norm error
    bound: float
    satisfied: bool
    constant_used: float

    def to_dict(self) -> dict:
        return {
            "max_err": self.max_err,
            "bound": self.bound,
            "satisfied": self.satisfied,
            "constant_used": self.constant_used,
            "per_t_err": [float(e) for e in self.per_t_err],
        }


def approximation_report(
    lds: LdsParams, stu_params: StuParams, bank: FilterBank, inputs: np.ndarray
) -> ApproximationReport:
    """Compare LDS and STU outputs; bound uses measured column norms and
    a = max_t |u_t|, with the constant of the bank's filter family."""
    y_lds = simulate_lds(lds, inputs)
    y_stu = forward(stu_params, bank, inputs)
    per_t = np.linalg.norm(y_lds - y_stu, axis=2).max(axis=0)
    a = float(np.linalg.norm(inputs, axis=2).max())
    c_const = BOUND_CONSTANT[bank.variant]
    if a == 0.0:
        bound = 0.0  # all-zero inputs: both rollouts vanish identically
    else:
        bound = theorem_bound(
            TheoremBoundInputs(
                K=stu_params.K,
                L=bank.L,
                a=a,
                b_col=max_column_norm(lds.B),
                c_col=max_column_norm(lds.C),
                c_const=c_const,
            )
        )
    max_err = float(per_t.max())
    return ApproximationReport(
        max_err=max_err,
        per_t_err=per_t,
        bound=bound,
        satisfied=bool(max_err <= bound),
        constant_used=c_const,
    )


def constructive_k_sweep(
    lds: LdsParams, bank: FilterBank, inputs: np.ndarray, K_values
) -> list[tuple[int, float, float]]:
    """Rows (K, max_err, bound) for the constructive parameters at each K."""
    rows = []
    for K in K_values:
        rep = approximation_report(lds, stu_from_lds(lds, bank, K), bank, inputs)
        rows.append((int(K), rep.max_err, rep.bound))
    return rows


@dataclass(frozen=True)
class ArRepresentation:
    """Finite autoregression y_t = sum_i alpha[i] y_{t-i} + sum_j Gamma[j] u_{t-j}."""

    alpha: np.ndarray  # (d,)
    Gamma: np.ndarray  # (d + 1, d_out, d_in)

    @property
    def order(self) -> int:
        return self.alpha.shape[0]

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Outputs from zero initial conditions.  The input part
        sum_j Gamma_j u_{t-j} is d + 1 shifted products; the output recursion
        is one IIR filter with denominator 1 - sum_i alpha_i z^{-i}."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3:
            raise ValueError("expected inputs of shape (batch, time, channels)")
        T = inputs.shape[1]
        v = inputs @ self.Gamma[0].T
        for j in range(1, min(self.order, T - 1) + 1):
            v[:, j:] += inputs[:, : T - j] @ self.Gamma[j].T
        return lfilter([1.0], np.concatenate(([1.0], -self.alpha)), v, axis=1)


def characteristic_polynomial(lds: LdsParams) -> np.ndarray:
    """Monic characteristic polynomial of A, coefficients low-to-high (p_0..p_{d-1}, 1).

    Diagonal A expands the product of linear factors; dense A uses the
    Faddeev-LeVerrier trace recursion.
    """
    d = lds.d_hidden
    if lds.diagonal:
        coeffs = np.array([1.0])
        for alpha in lds.A:
            coeffs = np.convolve(coeffs, np.array([-float(alpha), 1.0]))
        return coeffs
    coeffs = np.zeros(d + 1)
    coeffs[d] = 1.0
    N = np.eye(d)
    for k in range(1, d + 1):
        AN = lds.A @ N
        coeffs[d - k] = -np.trace(AN) / k
        N = AN + coeffs[d - k] * np.eye(d)
    return coeffs


def ar_coefficients(lds: LdsParams) -> ArRepresentation:
    """Exact order-d autoregression from the characteristic polynomial.

    The rollout convention x_t = A x_{t-1} + B u_t makes the lag-j response
    H_0 = CB + D, H_j = C A^j B.  With monic p(z) = z^d + p_{d-1} z^{d-1} +
    ... + p_0:

        alpha_i = -p_{d-i},  Gamma_j = H_j + sum_{i=1..j} p_{d-i} H_{j-i}.

    Responses beyond lag d cancel because p(A) = 0, so the recursion
    reproduces the LDS rollout exactly.
    """
    d = lds.d_hidden
    p = characteristic_polynomial(lds)  # p[m] multiplies z^m
    alpha = np.array([-p[d - i] for i in range(1, d + 1)])
    M = markov_params(lds, d + 1)  # [D, CB, CAB, ..., C A^d B]
    H = [M[0] + M[1]] + M[2:]
    Gamma = np.zeros((d + 1, lds.d_out, lds.d_in))
    for j in range(d + 1):
        G = H[j].copy()
        for i in range(1, j + 1):
            G += p[d - i] * H[j - i]
        Gamma[j] = G
    return ArRepresentation(alpha=alpha, Gamma=Gamma)
