"""Toy stacked sequence classifier: linear embedding, alternating STU layers
and GLU nonlinearities, time pooling, linear readout.

Gradients are reverse-mode over this fixed operator set (linear maps,
convolution by constant filters, GLU, pooling, softmax cross-entropy) rather
than a general tape; every parameter gradient is finite-difference checkable.
No normalization layers.

The embedding is folded into the first layer's kernel: that layer transforms
[u, 1], d_in + 1 channels, with its matrices composed with
E = [embed_W | embed_b], so no d_model-channel embedding is formed or
transformed, and the chain rule through the composition gives the embedding
gradients.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

import numpy as np

from .filterbank import FilterBank, compute_filterbank
from .lds import random_marginal_system, simulate_lds
from .stu import StuParams, _buffer, _outer_sum, spectral_backward, split_m, stack_m
# Layers call the shared kernel through this module-level name, which
# perfbench's tests patch to inject a wrong-but-finite layer.
from .stu import spectral_forward as _stu_layer_forward
from .trainer import TrainConfig, TrainReport, train


@dataclass
class StackConfig:
    n_layers: int = 2
    d_model: int = 32
    K: int = 24
    k_y: int = 0
    d_in: int = 1
    n_classes: int = 2
    pooling: str = "mean"  # "mean" | "last"
    # Not a setting: no layer input is rescaled.  Only perfbench's
    # reference_logits reads it, until the next benchmark change.
    pre_scale: ClassVar[None] = None

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
    # The step's large arrays, keyed (layer, name) and reused by every
    # stack_gradients step; (i, "stu") holds layer i's kernel workspace.
    workspace: dict = field(default_factory=dict, repr=False, compare=False)

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

    meta = {"kind": "stack_checkpoint", **asdict(model.config)}
    return save_arrays(directory, meta, dict(model.named_arrays()))


def load_stack(directory) -> StackModel:
    from .container import load_arrays

    meta, arrays = load_arrays(directory)
    if meta.get("kind") != "stack_checkpoint":
        raise ValueError(f"not a stack checkpoint: {directory}")
    if meta.get("pre_scale") is not None:
        raise ValueError(f"pre_scale={meta['pre_scale']!r} is no longer applied: {directory}")
    model = init_stack(StackConfig(**{f.name: meta[f.name] for f in fields(StackConfig)}), seed=0)
    for name, arr in model.named_arrays():
        arr[:] = arrays[name]
    return model


# Scale of the initial GLU and readout weights, relative to 1 / sqrt(d_model).
_INIT_SCALE = 0.5


def init_stack(config: StackConfig, seed: int = 0) -> StackModel:
    """Small Gaussian linear maps and zero spectral matrices, except a small
    Gaussian lag-0 tap M_u[0], drawn last, on each layer after the first, so
    gradients reach every layer from the first step."""
    rng = np.random.default_rng(seed)
    d = config.d_model
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            StackLayer(
                stu=StuParams.zeros(config.K, d, d, k_y=config.k_y),
                W_val=_INIT_SCALE * rng.standard_normal((d, d)) / np.sqrt(d),
                b_val=np.zeros(d),
                W_gate=_INIT_SCALE * rng.standard_normal((d, d)) / np.sqrt(d),
                b_gate=np.zeros(d),
            )
        )
    model = StackModel(
        config=config,
        embed_W=rng.standard_normal((d, config.d_in)) / np.sqrt(config.d_in),
        embed_b=np.zeros(d),
        layers=layers,
        readout_W=_INIT_SCALE * rng.standard_normal((config.n_classes, d)) / np.sqrt(d),
        readout_b=np.zeros(config.n_classes),
    )
    for layer in layers[1:]:
        layer.stu.M_u[0] = _INIT_SCALE * rng.standard_normal((d, d)) / np.sqrt(d)
    return model


def _fold_embedding(stu: StuParams, E: np.ndarray) -> StuParams:
    """The layer whose input is [u, 1] and whose kernel is stu's composed with
    the embedding E = [embed_W | embed_b]: M'_j = M_j E for every stack_m row;
    M_y acts on the outputs and stays."""
    M = stack_m(stu) @ E
    return StuParams(stu.variant, stu.K, E.shape[1], stu.d_out, **split_m(M, stu.K), M_y=stu.M_y)


def _unfold_grads(stu: StuParams, folded: dict, E: np.ndarray):
    """The chain rule back through _fold_embedding: stu's gradients and dL/dE
    from the folded layer's, dM_j = dM'_j E^T and dE = sum_j M_j^T dM'_j."""
    dMf = np.concatenate([folded["M_u"], folded["M_phi_plus"], folded["M_phi_minus"]])
    dE = stack_m(stu).reshape(-1, stu.d_in).T @ dMf.reshape(-1, E.shape[1])
    return {**folded, **split_m(dMf @ E.T, stu.K)}, dE


def _forward_cached(model: StackModel, bank: FilterBank, inputs: np.ndarray, reuse: bool = False):
    """Logits, the last activations, the pooled features, the embedding
    matrix E and each layer's (kernel params, kernel cache, a, s).  With
    reuse the large arrays come from the model's workspace, so they live
    until the next reusing call.

    The embedding is linear and the STU is a convolution by fixed filters
    followed by a linear map, so the embedding folds into the first layer's
    kernel: layer 0 transforms [u, 1] (d_in + 1 channels) with the params
    _fold_embedding composes with E = [embed_W | embed_b], and
    x = u embed_W^T + embed_b is never formed.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != model.config.d_in:
        raise ValueError(f"expected inputs of shape (batch, time, {model.config.d_in})")
    cfg = model.config
    ws = model.workspace if reuse else None
    shape = (*inputs.shape[:2], cfg.d_model)
    # Layer 0's input is [u, 1].
    x = _buffer(ws, "u1", (*inputs.shape[:2], cfg.d_in + 1))
    x[..., :-1] = inputs
    x[..., -1] = 1.0
    E = np.concatenate([model.embed_W, model.embed_b[:, None]], axis=1)
    caches = []
    for i, layer in enumerate(model.layers):
        stu = _fold_embedding(layer.stu, E) if i == 0 else layer.stu
        stu_ws = None if ws is None else ws.setdefault((i, "stu"), {})
        y, stu_cache = _stu_layer_forward(stu, bank, x, stu_ws)
        a = np.matmul(y, layer.W_val.T, out=_buffer(ws, (i, "a"), shape))
        a += layer.b_val
        # s = 1 / (1 + exp(-(y W_gate^T + b_gate))), in place.
        s = np.matmul(y, layer.W_gate.T, out=_buffer(ws, (i, "s"), shape))
        s += layer.b_gate
        with np.errstate(over="ignore"):  # a saturated gate's exp overflows to s = 0
            np.exp(np.negative(s, out=s), out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        caches.append((stu, stu_cache, a, s))
        x = np.multiply(a, s, out=_buffer(ws, (i, "x"), shape))
    if cfg.pooling == "mean":
        pooled = x.mean(axis=1)
    else:
        pooled = x[:, -1]
    logits = pooled @ model.readout_W.T + model.readout_b
    return logits, x, pooled, E, caches


def stack_forward(model: StackModel, bank: FilterBank, inputs: np.ndarray) -> np.ndarray:
    """Class logits, (batch, n_classes)."""
    logits, _, _, _, _ = _forward_cached(model, bank, inputs)
    return logits


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and the logit gradient (softmax minus one-hot)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    B = logits.shape[0]
    rows = np.arange(B)
    # 0 - mean rather than -mean, so a certain prediction scores +0.0.
    loss = float(0.0 - np.mean(np.log(np.maximum(probs[rows, labels], 1e-300))))
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    return loss, dlogits / B


def stack_gradients(model: StackModel, bank: FilterBank, inputs: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy loss and gradients for every model array.

    The step's large arrays live in the model's workspace and are reused by
    the next call, so a steady-state step allocates nothing large; the
    returned gradients are fresh arrays.  Calls on one model must therefore
    not overlap, as they would from two threads.
    """
    labels = np.asarray(labels)
    logits, x_final, pooled, E, caches = _forward_cached(model, bank, inputs, reuse=True)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    ws = model.workspace
    grads = {"readout_W": dlogits.T @ pooled, "readout_b": dlogits.sum(axis=0)}
    dpooled = dlogits @ model.readout_W
    B, T, _ = x_final.shape
    # Bias gradients sum over batch and time as one gemv against ones, about
    # ten times faster here than ndarray.sum over two axes.
    ones = _buffer(ws, "ones", (B * T,))
    ones.fill(1.0)
    dx = _buffer(ws, "dx", x_final.shape)
    dx.fill(0.0)
    if model.config.pooling == "mean":
        dx += dpooled[:, None, :] / T
    else:
        dx[:, -1] = dpooled
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        stu, stu_cache, a, s = caches[i]
        y = stu_cache["y"]
        da = np.multiply(dx, s, out=_buffer(ws, (i, "da"), dx.shape))
        # dz = dx a s (1 - s), in place.
        dz = np.multiply(dx, a, out=_buffer(ws, (i, "dz"), dx.shape))
        dz *= s
        tmp = np.subtract(1.0, s, out=_buffer(ws, (i, "tmp"), dx.shape))
        dz *= tmp
        grads[f"layers.{i}.W_val"] = _outer_sum(da, y)
        grads[f"layers.{i}.b_val"] = ones @ da.reshape(B * T, -1)
        grads[f"layers.{i}.W_gate"] = _outer_sum(dz, y)
        grads[f"layers.{i}.b_gate"] = ones @ dz.reshape(B * T, -1)
        dy = np.matmul(da, layer.W_val, out=_buffer(ws, (i, "dy"), dx.shape))
        dy += np.matmul(dz, layer.W_gate, out=tmp)
        dx, stu_grads = spectral_backward(stu, stu_cache, dy)
        if i == 0:
            # The folded layer's input gradient, dL/d[u, 1], is not needed.
            stu_grads, dE = _unfold_grads(layer.stu, stu_grads, E)
        for name, g in stu_grads.items():
            grads[f"layers.{i}.stu.{name}"] = g
    grads["embed_W"] = np.ascontiguousarray(dE[:, :-1])
    grads["embed_b"] = dE[:, -1].copy()
    return loss, grads


# ---------------------------------------------------------------------------
# Synthetic classification tasks (regenerable from seed; no stored corpora)
# ---------------------------------------------------------------------------


def make_task_dataset(task: str, n: int, L: int, seed: int, delay: int | None = None,
                      block: int = 32):
    """Inputs (n, L, d_in), integer labels (n,), and the class count.

    delayed_recall: random sign tokens held over blocks of `block` steps; the
    label is the token of the block `delay` (default L // 2) steps before the
    sequence end.
    parity_prefix: the label is the parity of the +1 count of a sign sequence.
    noisy_lds_class: the label is the sign of the pooled output of a fixed
    marginally stable system (seed 1234) driven by the input, which is
    observed with Gaussian noise of standard deviation 0.1.
    """
    rng = np.random.default_rng(seed)
    if task == "delayed_recall":
        if delay is None:
            delay = L // 2
        if not 0 <= delay < L:
            raise ValueError(f"delay must be in [0, L), got {delay}")
        if block < 1:
            raise ValueError(f"block must be at least 1, got {block}")
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
        system = random_marginal_system(4, 1, 1, 0.999, seed=1234)
        u = rng.standard_normal((n, L, 1))
        y = simulate_lds(system, u)
        labels = (y.mean(axis=(1, 2)) > 0).astype(np.int64)
        inputs = u + 0.1 * rng.standard_normal(u.shape)
        return inputs, labels, 2
    raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")


_TASK_DEFAULTS = {
    "delayed_recall": dict(n_layers=1, d_model=8, K=16, pooling="last"),
    "parity_prefix": dict(n_layers=2, d_model=16, K=16, pooling="mean"),
    "noisy_lds_class": dict(n_layers=2, d_model=16, K=16, pooling="mean"),
}
TASKS = tuple(_TASK_DEFAULTS)


_EVAL_BATCH = 256  # examples per forward pass in evaluate


def evaluate(model: StackModel, bank: FilterBank, inputs, labels):
    """Accuracy and mean softmax cross-entropy over a dataset, in batches."""
    hits, loss = 0, 0.0
    for start in range(0, len(labels), _EVAL_BATCH):
        logits = stack_forward(model, bank, inputs[start : start + _EVAL_BATCH])
        chunk = labels[start : start + _EVAL_BATCH]
        hits += int((logits.argmax(axis=1) == chunk).sum())
        loss += softmax_cross_entropy(logits, chunk)[0] * len(chunk)
    return hits / len(labels), loss / len(labels)


def train_on_dataset(
    model: StackModel,
    bank: FilterBank,
    train_data,
    train_config: TrainConfig,
    eval_data=None,
) -> TrainReport:
    """Mini-batch cross-entropy training of a stack model in place.  The
    report's metrics hold the trained model's accuracy and mean cross-entropy
    over the training set, and its accuracy on eval_data when given."""
    inputs, labels = train_data
    report = train(model, lambda idx: stack_gradients(model, bank, inputs[idx], labels[idx]),
                   len(labels), train_config)
    report.metrics["train_accuracy"], report.metrics["train_loss"] = evaluate(
        model, bank, inputs, labels)
    if eval_data is not None:
        report.metrics["eval_accuracy"] = evaluate(model, bank, *eval_data)[0]
    return report


def train_stack(
    task: str,
    train_config: TrainConfig,
    L: int = 256,
    n_train: int = 2048,
    n_eval: int = 512,
    **task_kw,
) -> TrainReport:
    """Generate the task from seed, train the task's default stack model on
    it, report held-out accuracy.  task_kw goes to make_task_dataset."""
    inputs, labels, n_classes = make_task_dataset(
        task, n_train + n_eval, L, seed=train_config.seed + 1, **task_kw
    )
    config = StackConfig(**_TASK_DEFAULTS[task], d_in=inputs.shape[2], n_classes=n_classes)
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
