"""Toy stacked sequence classifier: linear embedding, alternating STU layers
and GLU nonlinearities, time pooling, linear readout.

Gradients are reverse-mode over this fixed operator set (linear maps,
convolution by constant filters, GLU, pooling, softmax cross-entropy) rather
than a general tape; every parameter gradient is finite-difference checkable.
No normalization layers by default; an optional constant pre-layer scale
exists for ablations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .filterbank import FilterBank, compute_filterbank
from .lds import random_marginal_system, simulate_lds
from .optim import lr_at, make_optimizer
from .stu import StuParams, _outer_sum, spectral_backward
# Layers call the shared kernel through this module-level name, which
# perfbench's tests patch to inject a wrong-but-finite layer.
from .stu import spectral_forward as _stu_layer_forward
from .trainer import TrainConfig, TrainReport, TrainingDiverged

TASKS = ("delayed_recall", "parity_prefix", "noisy_lds_class")


@dataclass
class StackConfig:
    n_layers: int = 2
    d_model: int = 32
    K: int = 24
    k_y: int = 0
    d_in: int = 1
    n_classes: int = 2
    pooling: str = "mean"  # "mean" | "last"
    pre_scale: float | None = None  # constant multiplier on each layer input

    def __post_init__(self):
        if self.n_layers < 1 or self.d_model < 1:
            raise ValueError("n_layers and d_model must be >= 1")
        if self.pooling not in ("mean", "last"):
            raise ValueError(f"unknown pooling {self.pooling!r}")


@dataclass
class StackLayer:
    stu: StuParams
    W_val: np.ndarray  # (d_model, d_model)
    b_val: np.ndarray
    W_gate: np.ndarray
    b_gate: np.ndarray


@dataclass
class StackModel:
    config: StackConfig
    embed_W: np.ndarray  # (d_model, d_in)
    embed_b: np.ndarray  # (d_model,)
    layers: list[StackLayer]
    readout_W: np.ndarray  # (n_classes, d_model)
    readout_b: np.ndarray

    def named_arrays(self):
        yield "embed_W", self.embed_W
        yield "embed_b", self.embed_b
        for i, layer in enumerate(self.layers):
            for name, arr in layer.stu.named_arrays():
                yield f"layers.{i}.stu.{name}", arr
            yield f"layers.{i}.W_val", layer.W_val
            yield f"layers.{i}.b_val", layer.b_val
            yield f"layers.{i}.W_gate", layer.W_gate
            yield f"layers.{i}.b_gate", layer.b_gate
        yield "readout_W", self.readout_W
        yield "readout_b", self.readout_b


def save_stack(model: StackModel, directory):
    """Checkpoint the model as a JSON manifest plus packed float64 payload."""
    from .container import save_arrays

    cfg = model.config
    meta = {
        "kind": "stack_checkpoint",
        "n_layers": cfg.n_layers,
        "d_model": cfg.d_model,
        "K": cfg.K,
        "k_y": cfg.k_y,
        "d_in": cfg.d_in,
        "n_classes": cfg.n_classes,
        "pooling": cfg.pooling,
        "pre_scale": cfg.pre_scale,
    }
    return save_arrays(directory, meta, dict(model.named_arrays()))


def load_stack(directory) -> StackModel:
    from .container import load_arrays

    meta, arrays = load_arrays(directory)
    if meta.get("kind") != "stack_checkpoint":
        raise ValueError(f"not a stack checkpoint: {directory}")
    cfg = StackConfig(
        n_layers=int(meta["n_layers"]), d_model=int(meta["d_model"]), K=int(meta["K"]),
        k_y=int(meta["k_y"]), d_in=int(meta["d_in"]), n_classes=int(meta["n_classes"]),
        pooling=meta["pooling"], pre_scale=meta["pre_scale"],
    )
    model = init_stack(cfg, seed=0)
    for name, arr in model.named_arrays():
        arr[:] = arrays[name]
    return model


def init_stack(config: StackConfig, seed: int = 0, init_scale: float = 0.5) -> StackModel:
    """Spectral matrices start at zero; the surrounding linear maps get small
    Gaussian weights so gradients reach every layer from the first step."""
    rng = np.random.default_rng(seed)
    d = config.d_model
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            StackLayer(
                stu=StuParams.zeros(config.K, d, d, k_y=config.k_y),
                W_val=init_scale * rng.standard_normal((d, d)) / np.sqrt(d),
                b_val=np.zeros(d),
                W_gate=init_scale * rng.standard_normal((d, d)) / np.sqrt(d),
                b_gate=np.zeros(d),
            )
        )
    return StackModel(
        config=config,
        embed_W=rng.standard_normal((d, config.d_in)) / np.sqrt(config.d_in),
        embed_b=np.zeros(d),
        layers=layers,
        readout_W=init_scale * rng.standard_normal((config.n_classes, d)) / np.sqrt(d),
        readout_b=np.zeros(config.n_classes),
    )


def _forward_cached(model: StackModel, bank: FilterBank, inputs: np.ndarray):
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != model.config.d_in:
        raise ValueError(f"expected inputs of shape (batch, time, {model.config.d_in})")
    cfg = model.config
    x = inputs @ model.embed_W.T + model.embed_b
    caches = []
    for layer in model.layers:
        if cfg.pre_scale is not None:
            x = cfg.pre_scale * x
        y, stu_cache = _stu_layer_forward(layer.stu, bank, x)
        a = y @ layer.W_val.T + layer.b_val
        s = 1.0 / (1.0 + np.exp(-(y @ layer.W_gate.T + layer.b_gate)))
        caches.append((stu_cache, a, s))
        x = a * s
    if cfg.pooling == "mean":
        pooled = x.mean(axis=1)
    else:
        pooled = x[:, -1]
    logits = pooled @ model.readout_W.T + model.readout_b
    return logits, x, pooled, caches


def stack_forward(model: StackModel, bank: FilterBank, inputs: np.ndarray) -> np.ndarray:
    """Class logits, (batch, n_classes)."""
    logits, _, _, _ = _forward_cached(model, bank, inputs)
    return logits


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and the logit gradient (softmax minus one-hot)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    B = logits.shape[0]
    rows = np.arange(B)
    loss = float(-np.mean(np.log(np.maximum(probs[rows, labels], 1e-300))))
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    return loss, dlogits / B


def stack_gradients(model: StackModel, bank: FilterBank, inputs: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy loss and gradients for every model array."""
    labels = np.asarray(labels)
    logits, x_final, pooled, caches = _forward_cached(model, bank, inputs)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    cfg = model.config
    grads = {"readout_W": dlogits.T @ pooled, "readout_b": dlogits.sum(axis=0)}
    dpooled = dlogits @ model.readout_W
    B, T, _ = x_final.shape
    dx = np.zeros_like(x_final)
    if cfg.pooling == "mean":
        dx += dpooled[:, None, :] / T
    else:
        dx[:, -1] = dpooled
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        stu_cache, a, s = caches[i]
        y = stu_cache["y"]
        da = dx * s
        dz = dx * a * s * (1.0 - s)
        grads[f"layers.{i}.W_val"] = _outer_sum(da, y)
        grads[f"layers.{i}.b_val"] = da.sum(axis=(0, 1))
        grads[f"layers.{i}.W_gate"] = _outer_sum(dz, y)
        grads[f"layers.{i}.b_gate"] = dz.sum(axis=(0, 1))
        dy = da @ layer.W_val + dz @ layer.W_gate
        dx, stu_grads = spectral_backward(layer.stu, stu_cache, dy)
        for name, g in stu_grads.items():
            grads[f"layers.{i}.stu.{name}"] = g
        if cfg.pre_scale is not None:
            dx = cfg.pre_scale * dx
    grads["embed_W"] = _outer_sum(dx, np.asarray(inputs, dtype=np.float64))
    grads["embed_b"] = dx.sum(axis=(0, 1))
    return loss, grads


# ---------------------------------------------------------------------------
# Synthetic classification tasks (regenerable from seed; no stored corpora)
# ---------------------------------------------------------------------------


def make_task_dataset(task: str, n: int, L: int, seed: int, **kw):
    """Inputs (n, L, d_in), integer labels (n,), and the class count.

    delayed_recall: random sign tokens held over fixed blocks; the label is
    the token of the block `delay` steps before the sequence end.
    parity_prefix: the label is the parity of the +1 count of a sign sequence.
    noisy_lds_class: the label is the sign of the pooled output of a fixed
    marginally stable system driven by the (noisily observed) input.
    """
    rng = np.random.default_rng(seed)
    if task == "delayed_recall":
        delay = int(kw.get("delay", L // 2))
        block = int(kw.get("block", 32))
        if not 0 <= delay < L:
            raise ValueError(f"delay must be in [0, L), got {delay}")
        n_blocks = (L + block - 1) // block
        tokens = rng.choice([-1.0, 1.0], size=(n, n_blocks))
        inputs = np.repeat(tokens, block, axis=1)[:, :L, None]
        target_block = (L - 1 - delay) // block
        labels = (tokens[:, target_block] > 0).astype(np.int64)
        return inputs, labels, 2
    if task == "parity_prefix":
        signs = rng.choice([-1.0, 1.0], size=(n, L))
        labels = ((signs > 0).sum(axis=1) % 2).astype(np.int64)
        return signs[:, :, None], labels, 2
    if task == "noisy_lds_class":
        noise = float(kw.get("noise", 0.1))
        system = random_marginal_system(4, 1, 1, 0.999, seed=kw.get("system_seed", 1234))
        u = rng.standard_normal((n, L, 1))
        y = simulate_lds(system, u)
        labels = (y.mean(axis=(1, 2)) > 0).astype(np.int64)
        inputs = u + noise * rng.standard_normal(u.shape)
        return inputs, labels, 2
    raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")


_TASK_DEFAULTS = {
    "delayed_recall": dict(n_layers=1, d_model=8, K=16, pooling="last"),
    "parity_prefix": dict(n_layers=2, d_model=16, K=16, pooling="mean"),
    "noisy_lds_class": dict(n_layers=2, d_model=16, K=16, pooling="mean"),
}


def accuracy(model: StackModel, bank: FilterBank, inputs, labels, batch: int = 256) -> float:
    hits = 0
    for start in range(0, len(labels), batch):
        logits = stack_forward(model, bank, inputs[start : start + batch])
        hits += int((logits.argmax(axis=1) == labels[start : start + batch]).sum())
    return hits / len(labels)


def train_on_dataset(
    model: StackModel,
    bank: FilterBank,
    train_data,
    train_config: TrainConfig,
    eval_data=None,
) -> TrainReport:
    """Mini-batch cross-entropy training of a stack model in place."""
    inputs, labels = train_data
    n = len(labels)
    rng = np.random.default_rng(train_config.seed)
    opt = make_optimizer(
        train_config.optimizer,
        train_config.weight_decay,
        train_config.beta1,
        train_config.beta2,
        train_config.eps,
    )
    losses = np.zeros(train_config.steps)
    t0 = time.perf_counter()
    for step in range(train_config.steps):
        idx = rng.integers(0, n, size=min(train_config.batch_size, n))
        loss, grads = stack_gradients(model, bank, inputs[idx], labels[idx])
        losses[step] = loss
        if not np.isfinite(loss):
            report = TrainReport(
                losses[: step + 1], model, time.perf_counter() - t0,
                train_config.seed, train_config, diverged=True, divergence_step=step,
            )
            raise TrainingDiverged(step, report)
        lr = lr_at(
            step, train_config.steps, train_config.learning_rate,
            train_config.lr_schedule, train_config.warmup_frac,
        )
        opt.step(list(model.named_arrays()), grads, lr)
    report = TrainReport(losses, model, time.perf_counter() - t0, train_config.seed, train_config)
    report.metrics["train_accuracy"] = accuracy(model, bank, inputs, labels)
    if eval_data is not None:
        report.metrics["eval_accuracy"] = accuracy(model, bank, eval_data[0], eval_data[1])
    return report


def train_stack(
    task: str,
    config: StackConfig | None,
    train_config: TrainConfig,
    L: int = 256,
    n_train: int = 2048,
    n_eval: int = 512,
    bank: FilterBank | None = None,
    **task_kw,
) -> TrainReport:
    """Generate the task from seed, train a stack model, report held-out accuracy."""
    if config is None:
        if task not in _TASK_DEFAULTS:
            raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
        config = StackConfig(**_TASK_DEFAULTS[task])
    inputs, labels, n_classes = make_task_dataset(
        task, n_train + n_eval, L, seed=train_config.seed + 1, **task_kw
    )
    config.d_in = inputs.shape[2]
    config.n_classes = n_classes
    if bank is None:
        bank = compute_filterbank(L, config.K)
    model = init_stack(config, seed=train_config.seed)
    report = train_on_dataset(
        model,
        bank,
        (inputs[:n_train], labels[:n_train]),
        train_config,
        eval_data=(inputs[n_train:], labels[n_train:]),
    )
    report.metrics["task"] = task
    return report
