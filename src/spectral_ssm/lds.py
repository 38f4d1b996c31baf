"""Ground-truth linear dynamical systems: simulation, sampling, Markov parameters.

Sequence data is batched as float64 arrays of shape (batch, time, channels);
inputs at nonpositive time indices are zero by convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class LdsParams:
    """System matrices. A is a real diagonal (1-D) or dense symmetric (2-D)."""

    A: np.ndarray
    B: np.ndarray  # (d_h, d_in)
    C: np.ndarray  # (d_out, d_h)
    D: np.ndarray  # (d_out, d_in)

    def __post_init__(self):
        A, B, C, D = (np.asarray(m, dtype=np.float64) for m in (self.A, self.B, self.C, self.D))
        for name, m in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, m)
        if A.ndim not in (1, 2):
            raise ValueError("A must be a diagonal vector or a square matrix")
        d_h = A.shape[0]
        if A.ndim == 2:
            if A.shape != (d_h, d_h):
                raise ValueError(f"dense A must be square, got {A.shape}")
            if np.abs(A - A.T).max() > _SYMMETRY_TOL:
                raise ValueError("dense A must be symmetric")
        if B.shape[0] != d_h or C.shape[1] != d_h:
            raise ValueError("B/C dimensions inconsistent with A")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError("D dimensions inconsistent with B and C")

    @property
    def diagonal(self) -> bool:
        return self.A.ndim == 1

    @property
    def d_hidden(self) -> int:
        return self.A.shape[0]

    @property
    def d_in(self) -> int:
        return self.B.shape[1]

    @property
    def d_out(self) -> int:
        return self.C.shape[0]

    def spectral_radius(self) -> float:
        if self.diagonal:
            return float(np.abs(self.A).max())
        return float(np.abs(np.linalg.eigvalsh(self.A)).max())


def linear_scan(a: np.ndarray, b: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Solve x_t = a x_{t-1} + b_t along axis 1 of b (batch, time, d) from
    x_{-1} = 0, or x_t = a x_{t+1} + b_t from x_T = 0 with reverse.

    a is a diagonal (d,) vector or a dense (d, d) matrix, real or complex.
    The scan takes ceil(log2 T) doubling steps: after the step at offset k
    each x_t holds sum_{j < 2k} a^j b_{t-j}.  A power of a is formed only
    if a later step uses it, so none exceeds a^(T-1), the highest power the
    recursion itself applies.
    """
    x = np.array(b, dtype=np.result_type(a, b))
    power = np.asarray(a)
    T = x.shape[1]
    k = 1
    while k < T:
        dst, src = (slice(0, T - k), slice(k, T)) if reverse else (slice(k, T), slice(0, T - k))
        x[:, dst] += x[:, src] @ power.T if power.ndim == 2 else x[:, src] * power
        k *= 2
        if k < T:
            power = power @ power if power.ndim == 2 else power * power
    return x


def simulate_lds(params: LdsParams, inputs: np.ndarray) -> np.ndarray:
    """Exact rollout x_t = A x_{t-1} + B u_t, y_t = C x_t + D u_t from x_{-1} = 0.

    The states come from one linear_scan; the result is the rollout itself,
    not an approximation, up to the summation order of the scan.
    inputs: (batch, time, d_in); returns (batch, time, d_out).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != params.d_in:
        raise ValueError(f"expected inputs of shape (batch, time, {params.d_in}), got {inputs.shape}")
    return linear_scan(params.A, inputs @ params.B.T) @ params.C.T + inputs @ params.D.T


def random_marginal_system(
    d_h: int, d_in: int, d_out: int, rho: float, seed: int
) -> LdsParams:
    """Marginally stable diagonal system: A_ii = rho * random sign, Gaussian B, C,
    and a rectangular-diagonal Gaussian D.

    Draws come from numpy's PCG64 generator in the fixed order signs, B, C,
    diag(D), so a seed pins the system exactly.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if min(d_h, d_in, d_out) < 1:
        raise ValueError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=d_h) * 2 - 1
    A = rho * signs.astype(np.float64)
    B = rng.standard_normal((d_h, d_in))
    C = rng.standard_normal((d_out, d_h))
    D = np.zeros((d_out, d_in))
    m = min(d_out, d_in)
    D[np.arange(m), np.arange(m)] = rng.standard_normal(m)
    return LdsParams(A=A, B=B, C=C, D=D)


def random_symmetric_system(
    d_h: int, d_in: int, d_out: int, radius: float, seed: int, dense: bool = True
) -> LdsParams:
    """Random system with symmetric A rescaled to the given spectral radius."""
    rng = np.random.default_rng(seed)
    if dense:
        M = rng.standard_normal((d_h, d_h))
        A = 0.5 * (M + M.T)
        A *= radius / max(np.abs(np.linalg.eigvalsh(A)).max(), 1e-30)
    else:
        A = radius * (2.0 * rng.random(d_h) - 1.0)
    B = rng.standard_normal((d_h, d_in))
    C = rng.standard_normal((d_out, d_h))
    D = rng.standard_normal((d_out, d_in))
    return LdsParams(A=A, B=B, C=C, D=D)


def random_inputs(batch: int, T: int, d_in: int, seed: int) -> np.ndarray:
    """I.i.d. standard normal input sequences."""
    return np.random.default_rng(seed).standard_normal((batch, T, d_in))


def bounded_inputs(batch: int, T: int, d_in: int, seed: int) -> np.ndarray:
    """Gaussian inputs rescaled so the largest per-step vector norm is 1."""
    u = random_inputs(batch, T, d_in, seed)
    norms = np.linalg.norm(u, axis=2, keepdims=True)
    return u * (1.0 / np.maximum(norms.max(), 1e-30))


def markov_params(params: LdsParams, horizon: int) -> list[np.ndarray]:
    """Impulse-response matrices [D, CB, CAB, ..., C A^{h-1} B]."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    out = [params.D.copy()]
    v = params.B.copy()
    for _ in range(horizon):
        out.append(params.C @ v)
        v = params.A[:, None] * v if params.diagonal else params.A @ v
    return out


# ---------------------------------------------------------------------------
# Fixture I/O: JSON with row-major matrix arrays and a storage discriminator
# for A ("diagonal" | "dense").
# ---------------------------------------------------------------------------


def save_lds_json(params: LdsParams, path) -> None:
    doc = {
        "storage": "diagonal" if params.diagonal else "dense",
        "A": params.A.tolist(),
        "B": params.B.tolist(),
        "C": params.C.tolist(),
        "D": params.D.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_lds_json(path) -> LdsParams:
    doc = json.loads(Path(path).read_text())
    storage = doc.get("storage")
    if storage not in ("diagonal", "dense"):
        raise ValueError(f"unknown A storage {storage!r}")
    A = np.asarray(doc["A"], dtype=np.float64)
    if storage == "diagonal" and A.ndim != 1:
        raise ValueError("diagonal storage requires a 1-D A array")
    if storage == "dense" and A.ndim != 2:
        raise ValueError("dense storage requires a 2-D A array")
    return LdsParams(A=A, B=np.asarray(doc["B"]), C=np.asarray(doc["C"]), D=np.asarray(doc["D"]))


def marginal_fixture() -> LdsParams:
    """The packaged 4-state marginally stable demo system (3 in, 3 out)."""
    ref = resources.files("spectral_ssm") / "fixtures" / "marginal_lds.json"
    with resources.as_file(ref) as path:
        return load_lds_json(path)
