"""Convex STU training on sequence pairs, an exact least-squares oracle, and a
diagonal complex RNN baseline with the usual stabilization tricks ablatable.

Datasets are (inputs, targets) pairs of float64 arrays shaped
(n_sequences, time, channels).  All training is seeded and deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .filterbank import FilterBank
from .optim import Adam, lr_at
from .stu import (
    StuParams,
    feature_streams,
    forward,
    layer_grads,
    layer_streams,
    output_adjoint,
    parity_cumsum,
    recurse_outputs,
    spectral_backward,
    spectral_forward,
    split_m,
    stack_m,
)
from .lds import LdsParams, linear_scan, random_inputs, simulate_lds


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    steps: int = 500
    batch_size: int = 1
    seed: int = 0
    lr_schedule: str = "constant"  # | "warmup_cosine"
    warmup_frac: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0 or self.steps < 1 or self.batch_size < 1:
            raise ValueError("learning_rate, steps and batch_size must be positive")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")


@dataclass
class TrainReport:
    loss_curve: np.ndarray
    final_params: object
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


def train(params, loss_and_grads, n: int, config: TrainConfig, metrics: dict | None = None) -> TrainReport:
    """Seeded mini-batch Adam, in place on params.named_arrays().

    Each step draws config.batch_size example indices in [0, n) and calls
    loss_and_grads(idx) -> (loss, grads keyed like named_arrays).  A
    non-finite loss raises TrainingDiverged with the partial report.  metrics
    is attached to the report in either case.
    """
    metrics = dict(metrics or {})
    rng = np.random.default_rng(config.seed)
    opt = Adam()
    losses = np.zeros(config.steps)
    for step in range(config.steps):
        loss, grads = loss_and_grads(rng.integers(0, n, size=config.batch_size))
        losses[step] = loss
        if not np.isfinite(loss):
            report = TrainReport(losses[: step + 1], params, config, diverged=True,
                                 divergence_step=step, metrics=metrics)
            raise TrainingDiverged(step, report)
        lr = lr_at(step, config.steps, config.learning_rate, config.lr_schedule, config.warmup_frac)
        opt.step(list(params.named_arrays()), grads, lr)
    return TrainReport(losses, params, config, metrics=metrics)


# ---------------------------------------------------------------------------
# STU training
# ---------------------------------------------------------------------------


def _mse(y: np.ndarray, targets: np.ndarray):
    """Mean squared error of y against targets, and its gradient in y."""
    diff = y - targets
    return float(np.sum(diff * diff) / diff.size), (2.0 / diff.size) * diff


def stu_loss_and_grads(params: StuParams, bank: FilterBank, inputs, targets, features=None):
    """Mean-squared-error loss and analytic gradients for every M matrix.

    Without features this is the shared layer kernel and its adjoint.  With
    precomputed sigma^{1/4}-scaled features (su_plus, su_minus; su_minus is
    None for the alternative family), it is _streams_loss_and_grads on their
    stu.feature_streams.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if features is not None:
        return _streams_loss_and_grads(params, feature_streams(inputs, *features), targets)
    y, cache = spectral_forward(params, bank, inputs)
    loss, e = _mse(y, targets)
    return loss, spectral_backward(params, cache, e)[1]


def _streams_loss_and_grads(params: StuParams, streams: np.ndarray, targets):
    """stu_loss_and_grads on stu.feature_streams: the increments are one
    contraction of the streams with the stacked M, and every M gradient is
    one contraction of those streams with the increment adjoint; the output
    recursion, its adjoint and the M_y gradient are the kernel's own."""
    y = recurse_outputs(params, np.tensordot(streams, stack_m(params), axes=([2, 3], [0, 2])))
    loss, e = _mse(y, targets)
    lam = output_adjoint(params, e)
    # Contiguous, so the optimizer's elementwise updates run on plain blocks.
    dM = np.ascontiguousarray(np.tensordot(lam, streams, axes=([0, 1], [0, 1])).transpose(1, 0, 2))
    return loss, layer_grads(params, dM, lam, y)


def stu_mse(params: StuParams, bank: FilterBank, inputs, targets) -> float:
    """The loss of stu_loss_and_grads, without the adjoint."""
    diff = forward(params, bank, inputs) - np.asarray(targets, dtype=np.float64)
    return float(np.sum(diff * diff) / diff.size)


def fit_stu(dataset, bank: FilterBank, K: int, k_y: int, config: TrainConfig) -> TrainReport:
    """Gradient training of a single STU layer (k_y = 0 keeps the fixed
    y_{t-2} coupling and the problem convex; k_y >= 1 learns M_y).

    All matrices start at zero.  The streams (stu.layer_streams) are built
    once per dataset; each step indexes them.
    """
    inputs, targets = _check_dataset(dataset)
    n, T, d_in = inputs.shape
    d_out = targets.shape[2]
    params = StuParams.zeros(K, d_in, d_out, variant=bank.variant, k_y=k_y)
    streams = np.ascontiguousarray(layer_streams(bank, K, inputs).transpose(2, 3, 0, 1))

    def loss_and_grads(idx):
        return _streams_loss_and_grads(params, streams[idx], targets[idx])

    return train(params, loss_and_grads, n, config)


# ---------------------------------------------------------------------------
# Exact least squares for the convex (k_y = 0) layer
# ---------------------------------------------------------------------------

_MAX_LS_FEATURES = 10_000
RIDGE_FALLBACK = 1e-8


def _weights_to_params(W: np.ndarray, bank_variant, K: int, d_in: int, d_out: int) -> StuParams:
    M = W.reshape(-1, d_in, d_out).transpose(0, 2, 1)
    return StuParams(variant=bank_variant, K=K, d_in=d_in, d_out=d_out, **split_m(M, K))


def fit_stu_least_squares(dataset, bank: FilterBank, K: int) -> StuParams:
    """Globally optimal convex-layer parameters under MSE (dense normal
    equations G = F F^T, b = F Y; ridge fallback of 1e-8 when the
    factorization fails).  The outputs are linear in the features F, the
    stu.layer_streams of the parity-summed inputs: a row per (basis row,
    input channel), a column per (sequence, step)."""
    inputs, targets = _check_dataset(dataset)
    n, T, d_in = inputs.shape
    d_out = targets.shape[2]
    F = layer_streams(bank, K, parity_cumsum(inputs)).reshape(-1, n * T)
    if F.shape[0] > _MAX_LS_FEATURES:
        raise ValueError(f"feature dimension {F.shape[0]} exceeds {_MAX_LS_FEATURES}")
    Y = targets.reshape(n * T, d_out)
    G = F @ F.T
    b = F @ Y
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
    """Final reconstruction error of the convex layer for each K (ascending):
    the fitted parameters' MSE over the whole dataset, for either method.

    The dataset is n_sequences Gaussian input sequences of length bank.L, with
    targets from the exact system rollout; "ls" solves each K exactly, "sgd"
    runs fit_stu, which is gradient training with Adam despite the name.
    noise_std adds Gaussian observation noise to the targets, giving the
    error curve an explicit floor (the exact oracle otherwise decays to the
    double-precision floor instead of plateauing).
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
        else:
            params = fit_stu((inputs, targets), bank, K, 0, config).final_params
        rows.append((K, stu_mse(params, bank, inputs, targets)))
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
        return asdict(self)


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
    gamma_norm: bool = True
    stable_exp: bool = True

    def lam_polar(self):
        """(magnitude, phase) of the diagonal eigenvalues."""
        if self.stable_exp:
            return np.exp(-np.exp(self.nu_log)), np.exp(self.theta_log)
        return np.exp(-self.nu_log), self.theta_log.copy()

    def gamma(self) -> np.ndarray:
        mag, _ = self.lam_polar()
        if self.gamma_norm:
            return np.sqrt(np.maximum(1.0 - mag**2, 0.0))
        return np.ones_like(mag)

    def named_arrays(self):
        for name in ("nu_log", "theta_log", "B_re", "B_im", "C_re", "C_im", "D"):
            yield name, getattr(self, name)


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
        gamma_norm=options.gamma_norm,
        stable_exp=options.stable_exp,
    )


def _lru_scan(params: LruParams, inputs: np.ndarray):
    """The readout Re(C x_t) + D u_t over the complex states of
    x_t = lambda x_{t-1} + gamma (B u_t), solved by one linear_scan.

    Returns (outputs, (lambda, gamma, B u, x)), the cache of the adjoint.
    """
    mag, theta = params.lam_polar()
    lam = mag * np.exp(1j * theta)
    gamma = params.gamma()
    s = inputs @ (params.B_re + 1j * params.B_im).T
    x = linear_scan(lam, gamma * s)
    out = (x @ (params.C_re + 1j * params.C_im).T).real + inputs @ params.D.T
    return out, (lam, gamma, s, x)


def lru_forward(params: LruParams, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != params.B_re.shape[1]:
        raise ValueError(f"expected inputs of shape (batch, time, {params.B_re.shape[1]})")
    mag, _ = params.lam_polar()
    if np.any(mag >= 1.0):
        raise ValueError(f"unstable recurrence: max |lambda| = {mag.max():.6g} >= 1")
    out, _ = _lru_scan(params, inputs)
    return out


def lru_mse(params: LruParams, inputs, targets) -> float:
    """The loss of lru_loss_and_grads, without the adjoint."""
    out, _ = _lru_scan(params, np.asarray(inputs, dtype=np.float64))
    diff = out - np.asarray(targets, dtype=np.float64)
    return float(np.sum(diff * diff) / diff.size)


def lru_loss_and_grads(params: LruParams, inputs, targets):
    """MSE loss with analytic gradients through the complex recurrence,
    including the gamma normalization coupling when enabled."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    out, (lam, gamma, s, x) = _lru_scan(params, inputs)
    loss, g = _mse(out, targets)
    # z_t = dL/dRe(x_t) + i dL/dIm(x_t) obeys z_t = conj(lambda) z_{t+1} + conj(C)^T g_t.
    z = linear_scan(lam.conj(), g @ (params.C_re - 1j * params.C_im), reverse=True)
    over_bt = ([0, 1], [0, 1])
    dC = np.tensordot(g, x, axes=over_bt)
    dB = gamma[:, None] * np.tensordot(z, inputs, axes=over_bt)
    grads = {"D": np.tensordot(g, inputs, axes=over_bt), "C_re": dC.real, "C_im": -dC.imag,
             "B_re": dB.real, "B_im": dB.imag}
    d_lam = np.einsum("bth,bth->h", z[:, 1:], x[:, :-1].conj())
    d_gamma = np.einsum("bth,bth->h", z, s.conj()).real
    mag, theta = params.lam_polar()
    # Real and imaginary parts are the gradients of |lambda| and of the phase / |lambda|.
    rotated = d_lam * np.exp(-1j * theta)
    d_mag = rotated.real
    if params.gamma_norm:
        d_mag = d_mag - d_gamma * mag / np.maximum(gamma, 1e-30)
    d_theta = rotated.imag * mag
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

    def loss_and_grads(idx):
        mag, _ = params.lam_polar()
        if not (np.all(mag < 1.0) and np.all(np.isfinite(mag))):
            return np.inf, None  # an unstable eigenvalue counts as divergence
        return lru_loss_and_grads(params, inputs[idx], targets[idx])

    return train(params, loss_and_grads, n, config, metrics={"options": options.to_dict()})
