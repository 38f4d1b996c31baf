"""Adam, updating named parameter arrays in place, and the learning-rate
schedules every training loop shares."""

from __future__ import annotations

import math

import numpy as np


class Adam:
    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, named_params, grads: dict, lr: float):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in named_params:
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            p -= lr * mhat / (np.sqrt(vhat) + self.eps)


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
