"""Convex STU training on sequence pairs, an exact least-squares oracle, and a
diagonal complex RNN baseline with the usual stabilization tricks ablatable.

Datasets are (inputs, targets) pairs of float64 arrays shaped
(n_sequences, time, channels).  All training is seeded and deterministic.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .filterbank import FilterBank, HankelVariant
from .optim import lr_at, make_optimizer
from .stu import (
    StuParams,
    _parity_cumsum,
    increments_from_features,
    output_adjoint,
    recurse_outputs,
    scaled_features,
    spectral_backward,
    spectral_forward,
    tap_grads,
)
from .lds import LdsParams, random_inputs, simulate_lds


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    steps: int = 500
    batch_size: int = 1
    seed: int = 0
    optimizer: str = "adam"  # "sgd" | "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    lr_schedule: str = "constant"  # | "warmup_cosine"
    warmup_frac: float = 0.1
    my_lr_scale: float = 1.0  # relative learning rate for M_y

    def __post_init__(self):
        if self.learning_rate <= 0 or self.steps < 1 or self.batch_size < 1:
            raise ValueError("learning_rate, steps and batch_size must be positive")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        if self.my_lr_scale <= 0:
            raise ValueError("my_lr_scale must be positive")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class TrainReport:
    loss_curve: np.ndarray
    final_params: object
    wall_time: float
    seed: int
    config: TrainConfig
    diverged: bool = False
    divergence_step: int | None = None
    metrics: dict = field(default_factory=dict)


class TrainingDiverged(RuntimeError):
    """Raised when a loss goes non-finite; carries the step and partial report."""

    def __init__(self, step: int, report: TrainReport):
        super().__init__(f"training diverged at step {step}")
        self.step = step
        self.report = report


def _check_dataset(dataset):
    inputs, targets = dataset
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 3 or targets.ndim != 3 or inputs.shape[:2] != targets.shape[:2]:
        raise ValueError("dataset must be (inputs, targets) with matching (n, time) shapes")
    if inputs.shape[0] == 0:
        raise ValueError("dataset is empty")
    return inputs, targets


# ---------------------------------------------------------------------------
# STU training
# ---------------------------------------------------------------------------


def stu_loss_and_grads(params: StuParams, bank: FilterBank, inputs, targets, features=None):
    """Mean-squared-error loss and analytic gradients for every M matrix.

    Without features this is the shared layer kernel and its adjoint.  With
    precomputed scaled features (as from stu.scaled_features) the increments
    and the M_phi gradients contract those instead; the output-recursion
    adjoint and the M_u/M_y gradients are the kernel's own.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if features is None:
        y, cache = spectral_forward(params, bank, inputs)
    else:
        su_plus, su_minus = features
        y = recurse_outputs(params, increments_from_features(params, inputs, su_plus, su_minus))
    diff = y - targets
    N = diff.size
    loss = float(np.sum(diff * diff) / N)
    e = (2.0 / N) * diff
    if features is None:
        return loss, spectral_backward(params, cache, e)[1]
    lam = output_adjoint(params, e)
    grads = tap_grads(params, lam, inputs, y)
    T = inputs.shape[1]
    if T > 2:
        for name, su in (("M_phi_plus", su_plus), ("M_phi_minus", su_minus)):
            if su is not None:
                pair = np.tensordot(su[:, : T - 2], lam[:, 2:], axes=([0, 1], [0, 1]))
                grads[name] = pair.transpose(0, 2, 1)
    return loss, grads


def stu_mse(params: StuParams, bank: FilterBank, inputs, targets) -> float:
    loss, _ = stu_loss_and_grads(params, bank, inputs, targets)
    return loss


def fit_stu(dataset, bank: FilterBank, K: int, k_y: int, config: TrainConfig) -> TrainReport:
    """Gradient training of a single STU layer (k_y = 0 keeps the fixed
    y_{t-2} coupling and the problem convex; k_y >= 1 learns M_y).

    All matrices start at zero.  Features are computed once per dataset.
    """
    inputs, targets = _check_dataset(dataset)
    n, T, d_in = inputs.shape
    d_out = targets.shape[2]
    params = StuParams.zeros(K, d_in, d_out, variant=bank.variant, k_y=k_y)
    su_plus, su_minus = scaled_features(bank, K, inputs)
    rng = np.random.default_rng(config.seed)
    opt = make_optimizer(
        config.optimizer, config.weight_decay, config.beta1, config.beta2, config.eps
    )
    losses = np.zeros(config.steps)
    t0 = time.perf_counter()
    for step in range(config.steps):
        idx = rng.integers(0, n, size=config.batch_size)
        feats = (su_plus[idx], None if su_minus is None else su_minus[idx])
        loss, grads = stu_loss_and_grads(params, bank, inputs[idx], targets[idx], features=feats)
        losses[step] = loss
        if not np.isfinite(loss):
            report = TrainReport(
                losses[: step + 1], params, time.perf_counter() - t0, config.seed, config,
                diverged=True, divergence_step=step,
            )
            raise TrainingDiverged(step, report)
        lr = lr_at(step, config.steps, config.learning_rate, config.lr_schedule, config.warmup_frac)
        opt.step(list(params.named_arrays()), grads, lr, lr_scale={"M_y": config.my_lr_scale})
    report = TrainReport(losses, params, time.perf_counter() - t0, config.seed, config)
    report.metrics["final_loss"] = float(losses[-1])
    return report


# ---------------------------------------------------------------------------
# Exact least squares for the convex (k_y = 0) layer
# ---------------------------------------------------------------------------

_MAX_LS_FEATURES = 10_000
RIDGE_FALLBACK = 1e-8


def _cumulative_features(bank: FilterBank, K: int, inputs: np.ndarray) -> np.ndarray:
    """Parity-prefix-summed feature streams; output y_t is linear in them.

    Streams per input channel: taps u_t, u_{t-1}, u_{t-2}, then the shifted
    scaled spectral features.  Returns (n, T, n_features).
    """
    n, T, d_in = inputs.shape
    su_plus, su_minus = scaled_features(bank, K, inputs)
    n_spec = K if su_minus is None else 2 * K
    streams = np.zeros((n, T, 3 + n_spec, d_in))
    streams[:, :, 0] = inputs
    if T > 1:
        streams[:, 1:, 1] = inputs[:, :-1]
    if T > 2:
        streams[:, 2:, 2] = inputs[:, :-2]
        streams[:, 2:, 3 : 3 + K] = su_plus[:, : T - 2]
        if su_minus is not None:
            streams[:, 2:, 3 + K :] = su_minus[:, : T - 2]
    flat = streams.reshape(n, T, (3 + n_spec) * d_in)
    return _parity_cumsum(flat)


def _weights_to_params(W: np.ndarray, bank_variant, K: int, d_in: int, d_out: int) -> StuParams:
    n_spec = 2 * K if bank_variant is HankelVariant.PRIMARY else K
    blocks = W.reshape(3 + n_spec, d_in, d_out)
    params = StuParams.zeros(K, d_in, d_out, variant=bank_variant)
    for i in range(3):
        params.M_u[i] = blocks[i].T
    params.M_phi_plus[:] = blocks[3 : 3 + K].transpose(0, 2, 1)
    if bank_variant is HankelVariant.PRIMARY:
        params.M_phi_minus[:] = blocks[3 + K :].transpose(0, 2, 1)
    return params


def fit_stu_least_squares(dataset, bank: FilterBank, K: int) -> StuParams:
    """Globally optimal convex-layer parameters under MSE (dense normal
    equations; ridge fallback of 1e-8 when the factorization fails)."""
    inputs, targets = _check_dataset(dataset)
    n, T, d_in = inputs.shape
    d_out = targets.shape[2]
    F = _cumulative_features(bank, K, inputs).reshape(n * T, -1)
    if F.shape[1] > _MAX_LS_FEATURES:
        raise ValueError(f"feature dimension {F.shape[1]} exceeds {_MAX_LS_FEATURES}")
    Y = targets.reshape(n * T, d_out)
    G = F.T @ F
    b = F.T @ Y
    if np.trace(G) == 0.0:
        return _weights_to_params(np.zeros_like(b), bank.variant, K, d_in, d_out)
    try:
        W = cho_solve(cho_factor(G), b)
    except np.linalg.LinAlgError:
        # Ridge is relative to the mean feature energy so it bites at any scale.
        lam = RIDGE_FALLBACK * float(np.trace(G)) / G.shape[0]
        warnings.warn(f"normal equations rank-deficient; refitting with ridge {lam:.3e}")
        W = cho_solve(cho_factor(G + lam * np.eye(G.shape[0])), b)
    return _weights_to_params(W, bank.variant, K, d_in, d_out)


def k_sweep(
    system: LdsParams,
    K_values,
    bank: FilterBank,
    config: TrainConfig,
    n_sequences: int = 8,
    method: str = "ls",
    noise_std: float = 0.0,
) -> list[tuple[int, float]]:
    """Final reconstruction error of the convex layer for each K (ascending).

    The dataset is n_sequences Gaussian input sequences of length bank.L, with
    targets from the exact system rollout; "ls" solves each K exactly, "sgd"
    runs fit_stu.  noise_std adds Gaussian observation noise to the targets,
    giving the error curve an explicit floor (the exact oracle otherwise
    decays to the double-precision floor instead of plateauing).
    """
    K_values = [int(k) for k in K_values]
    if any(b <= a for a, b in zip(K_values, K_values[1:])):
        raise ValueError("K_values must be ascending")
    if method not in ("ls", "sgd"):
        raise ValueError(f"unknown sweep method {method!r}")
    inputs = random_inputs(n_sequences, bank.L, system.d_in, config.seed)
    targets = simulate_lds(system, inputs)
    if noise_std > 0.0:
        rng = np.random.default_rng(config.seed + 1)
        targets = targets + noise_std * rng.standard_normal(targets.shape)
    rows = []
    for K in K_values:
        if method == "ls":
            params = fit_stu_least_squares((inputs, targets), bank, K)
            err = stu_mse(params, bank, inputs, targets)
        else:
            report = fit_stu((inputs, targets), bank, K, 0, config)
            err = float(report.loss_curve[-1])
        rows.append((K, err))
    return rows


# ---------------------------------------------------------------------------
# Baseline: complex diagonal linear RNN
# ---------------------------------------------------------------------------


@dataclass
class LruOptions:
    stable_exp: bool = True
    gamma_norm: bool = True
    ring_init: tuple[float, float] = (0.9, 0.999)
    max_init_phase: float = 6.28

    def to_dict(self) -> dict:
        return {
            "stable_exp": self.stable_exp,
            "gamma_norm": self.gamma_norm,
            "ring_init": list(self.ring_init),
            "max_init_phase": self.max_init_phase,
        }


@dataclass
class LruParams:
    """Diagonal complex recurrence x_t = lambda * x_{t-1} + gamma * (B u_t),
    real readout y_t = Re(C x_t) + D u_t.

    With stable_exp, lambda_j = exp(-exp(nu_log_j) + i exp(theta_log_j)) so
    |lambda| < 1 for any parameter value; otherwise nu_log/theta_log hold the
    raw decay and phase (ablation mode, |lambda| unconstrained).
    """

    nu_log: np.ndarray  # (d_h,)
    theta_log: np.ndarray  # (d_h,)
    B_re: np.ndarray  # (d_h, d_in)
    B_im: np.ndarray
    C_re: np.ndarray  # (d_out, d_h)
    C_im: np.ndarray
    D: np.ndarray  # (d_out, d_in)
    gamma_mode: str = "coupled"  # "off" | "coupled"
    stable_exp: bool = True

    def __post_init__(self):
        if self.gamma_mode not in ("off", "coupled"):
            raise ValueError(f"unknown gamma mode {self.gamma_mode!r}")

    def lam_polar(self):
        """(magnitude, phase) of the diagonal eigenvalues."""
        if self.stable_exp:
            return np.exp(-np.exp(self.nu_log)), np.exp(self.theta_log)
        return np.exp(-self.nu_log), self.theta_log.copy()

    def gamma(self) -> np.ndarray:
        mag, _ = self.lam_polar()
        if self.gamma_mode == "coupled":
            return np.sqrt(np.maximum(1.0 - mag**2, 0.0))
        return np.ones_like(mag)

    def named_arrays(self):
        for name in ("nu_log", "theta_log", "B_re", "B_im", "C_re", "C_im", "D"):
            yield name, getattr(self, name)

    def copy(self) -> "LruParams":
        return LruParams(
            **{name: arr.copy() for name, arr in self.named_arrays()},
            gamma_mode=self.gamma_mode,
            stable_exp=self.stable_exp,
        )


def init_lru_params(
    d_hidden: int, d_in: int, d_out: int, options: LruOptions, seed: int
) -> LruParams:
    """Ring initialization: |lambda| uniform on the annulus [min_rad, max_rad]
    (by area), phase uniform in [0, max_init_phase]."""
    rng = np.random.default_rng(seed)
    lo, hi = options.ring_init
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"ring_init radii must satisfy 0 <= min <= max <= 1, got {options.ring_init}")
    mag = np.sqrt(rng.uniform(lo**2, hi**2, size=d_hidden))
    mag = np.clip(mag, 1e-12, 1.0 - 1e-9)
    phase = np.maximum(rng.uniform(0.0, options.max_init_phase, size=d_hidden), 1e-8)
    if options.stable_exp:
        nu_log = np.log(-np.log(mag))
        theta_log = np.log(phase)
    else:
        nu_log = -np.log(mag)
        theta_log = phase
    return LruParams(
        nu_log=nu_log,
        theta_log=theta_log,
        B_re=rng.standard_normal((d_hidden, d_in)) / np.sqrt(2 * d_in),
        B_im=rng.standard_normal((d_hidden, d_in)) / np.sqrt(2 * d_in),
        C_re=rng.standard_normal((d_out, d_hidden)) / np.sqrt(d_hidden),
        C_im=rng.standard_normal((d_out, d_hidden)) / np.sqrt(d_hidden),
        D=np.zeros((d_out, d_in)),
        gamma_mode="coupled" if options.gamma_norm else "off",
        stable_exp=options.stable_exp,
    )


def _lru_scan(params: LruParams, inputs: np.ndarray):
    mag, theta = params.lam_polar()
    lam_re, lam_im = mag * np.cos(theta), mag * np.sin(theta)
    gamma = params.gamma()
    B, T, _ = inputs.shape
    d_h = params.nu_log.shape[0]
    s_re = inputs @ params.B_re.T
    s_im = inputs @ params.B_im.T
    x_re = np.zeros((B, T, d_h))
    x_im = np.zeros((B, T, d_h))
    cr = np.zeros((B, d_h))
    ci = np.zeros((B, d_h))
    for t in range(T):
        cr, ci = (
            lam_re * cr - lam_im * ci + gamma * s_re[:, t],
            lam_re * ci + lam_im * cr + gamma * s_im[:, t],
        )
        x_re[:, t] = cr
        x_im[:, t] = ci
    out = x_re @ params.C_re.T - x_im @ params.C_im.T + inputs @ params.D.T
    return out, (lam_re, lam_im, gamma, s_re, s_im, x_re, x_im)


def lru_forward(params: LruParams, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != params.B_re.shape[1]:
        raise ValueError(f"expected inputs of shape (batch, time, {params.B_re.shape[1]})")
    mag, _ = params.lam_polar()
    if np.any(mag >= 1.0):
        raise ValueError(f"unstable recurrence: max |lambda| = {mag.max():.6g} >= 1")
    out, _ = _lru_scan(params, inputs)
    return out


def lru_loss_and_grads(params: LruParams, inputs, targets):
    """MSE loss with analytic gradients through the complex recurrence,
    including the gamma normalization coupling when enabled."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    out, cache = _lru_scan(params, inputs)
    lam_re, lam_im, gamma, s_re, s_im, x_re, x_im = cache
    diff = out - targets
    N = diff.size
    loss = float(np.sum(diff * diff) / N)
    g = (2.0 / N) * diff
    B, T, _ = inputs.shape
    d_h = params.nu_log.shape[0]
    grads = {
        "D": np.einsum("bto,bti->oi", g, inputs),
        "C_re": np.einsum("bto,bth->oh", g, x_re),
        "C_im": -np.einsum("bto,bth->oh", g, x_im),
    }
    R = np.zeros((B, T, d_h))
    Q = np.zeros((B, T, d_h))
    r = np.zeros((B, d_h))
    q = np.zeros((B, d_h))
    for t in range(T - 1, -1, -1):
        r, q = (
            g[:, t] @ params.C_re + lam_re * r + lam_im * q,
            -(g[:, t] @ params.C_im) - lam_im * r + lam_re * q,
        )
        R[:, t] = r
        Q[:, t] = q
    x_re_prev = np.concatenate([np.zeros((B, 1, d_h)), x_re[:, :-1]], axis=1)
    x_im_prev = np.concatenate([np.zeros((B, 1, d_h)), x_im[:, :-1]], axis=1)
    d_lam_re = np.einsum("bth,bth->h", R, x_re_prev) + np.einsum("bth,bth->h", Q, x_im_prev)
    d_lam_im = -np.einsum("bth,bth->h", R, x_im_prev) + np.einsum("bth,bth->h", Q, x_re_prev)
    grads["B_re"] = np.einsum("bth,bti->hi", R * gamma, inputs)
    grads["B_im"] = np.einsum("bth,bti->hi", Q * gamma, inputs)
    d_gamma = np.einsum("bth,bth->h", R, s_re) + np.einsum("bth,bth->h", Q, s_im)
    mag, theta = params.lam_polar()
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    d_mag = d_lam_re * cos_t + d_lam_im * sin_t
    if params.gamma_mode == "coupled":
        d_mag = d_mag - d_gamma * mag / np.maximum(gamma, 1e-30)
    d_theta = -d_lam_re * mag * sin_t + d_lam_im * mag * cos_t
    if params.stable_exp:
        grads["nu_log"] = d_mag * (-np.exp(params.nu_log) * mag)
        grads["theta_log"] = d_theta * theta
    else:
        grads["nu_log"] = -d_mag * mag
        grads["theta_log"] = d_theta
    return loss, grads


def fit_lru(dataset, d_hidden: int, config: TrainConfig, options: LruOptions | None = None) -> TrainReport:
    """Gradient training of the diagonal RNN baseline.

    Divergence (non-finite loss or an unstable eigenvalue under the raw
    parameterization) raises TrainingDiverged with the partial report attached.
    """
    options = options or LruOptions()
    inputs, targets = _check_dataset(dataset)
    n = inputs.shape[0]
    d_in, d_out = inputs.shape[2], targets.shape[2]
    params = init_lru_params(d_hidden, d_in, d_out, options, config.seed)
    rng = np.random.default_rng(config.seed)
    opt = make_optimizer(
        config.optimizer, config.weight_decay, config.beta1, config.beta2, config.eps
    )
    losses = np.zeros(config.steps)
    t0 = time.perf_counter()
    for step in range(config.steps):
        idx = rng.integers(0, n, size=config.batch_size)
        mag, _ = params.lam_polar()
        loss = np.inf
        if np.all(mag < 1.0) and np.all(np.isfinite(mag)):
            loss, grads = lru_loss_and_grads(params, inputs[idx], targets[idx])
        losses[step] = loss
        if not np.isfinite(loss):
            report = TrainReport(
                losses[: step + 1], params, time.perf_counter() - t0, config.seed, config,
                diverged=True, divergence_step=step,
            )
            report.metrics["options"] = options.to_dict()
            raise TrainingDiverged(step, report)
        lr = lr_at(step, config.steps, config.learning_rate, config.lr_schedule, config.warmup_frac)
        opt.step(list(params.named_arrays()), grads, lr)
    report = TrainReport(losses, params, time.perf_counter() - t0, config.seed, config)
    report.metrics["final_loss"] = float(losses[-1])
    report.metrics["options"] = options.to_dict()
    return report
