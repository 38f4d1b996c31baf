"""Adam, updating named parameter arrays in place, and the learning-rate
schedules every training loop shares."""

from __future__ import annotations

import math

import numpy as np


# The moment decay rates and the denominator's guard, at Kingma and Ba's values.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, named_params, grads: dict, lr: float):
        self.t += 1
        for name, p in named_params:
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            mhat = m / (1 - BETA1**self.t)
            vhat = v / (1 - BETA2**self.t)
            p -= lr * mhat / (np.sqrt(vhat) + EPS)


def lr_at(step: int, total_steps: int, base_lr: float, schedule: str, warmup_frac: float) -> float:
    """Learning rate for 0-based step under 'constant' or 'warmup_cosine'."""
    if schedule == "constant":
        return base_lr
    if schedule != "warmup_cosine":
        raise ValueError(f"unknown lr schedule {schedule!r}")
    warmup = max(1, int(warmup_frac * total_steps)) if warmup_frac > 0 else 0
    if warmup and step < warmup:
        return base_lr * (step + 1) / warmup
    span = max(1, total_steps - warmup)
    progress = min(1.0, (step - warmup) / span)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
