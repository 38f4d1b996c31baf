"""The three benchmark workloads.

Each drives the library through public functions only, with a span around
every call into a layer.  A workload is set up by setup(seed, tracer); draw(i)
makes item i's inputs outside the item's timer; item(draw, tracer) runs one
item and returns what its oracles need; verify(draw, out, caught, tracer)
runs those oracles after the timer stops, with the warnings the item raised,
and raises on a non-finite value or a missed oracle; check(tracer) runs the
once-per-run checks on the set-up state, before the timed phase, and says
whether they held.  Every check() includes an exactness oracle: the FFT
features against direct summation at criterion 5's tolerance, and the
layer's forward pass against a reference written out from those features.  Gradients are checked there, at the random initialisation
criterion 7 also uses: trained LRU phases grow so steep that a 1e-6 central
difference no longer resolves them.

- stack_train: one optimizer step of the `train-stack` delayed_recall
  classifier.  Nearly all time is in the stack's fused FFT kernel and its
  adjoint; it never touches lds, theory or the LRU baseline.
- lds_fit: one paired step of criterion 6's comparison, the STU layer on
  precomputed features against the diagonal LRU baseline.  Its time is in
  trainer, mostly the LRU's sequential scan.
- verify_long: one `verify-theorem` system draw at L=4096, checked against the
  analytic bound, the exact autoregression and the least-squares fit.  The
  only workload where filterbank, lds, theory and least squares do real work.
"""

from __future__ import annotations

import math

import numpy as np

from harness import EXACT_TOL, GRAD_TOL, ItemFailed, gradcheck
from spectral_ssm import filterbank, lds, optim, stack, stu, theory, trainer


def build_bank(L: int, K: int, tracer):
    with tracer.span("filterbank.build"):
        bank = filterbank.compute_filterbank(L, K)
    # Computed, not measured: the auto path builds the dense L x L matrix up
    # to DENSE_EIGH_MAX and is matrix-free beyond it.
    tracer.note_peak("filterbank.dense_matrix_bytes",
                     8 * L * L if L <= filterbank.DENSE_EIGH_MAX else 0)
    return bank


def simulate(system, inputs, tracer):
    with tracer.span("lds.simulate"):
        out = lds.simulate_lds(system, inputs)
    tracer.count("lds.simulate_steps", inputs.shape[0] * inputs.shape[1])
    return out


def reference_stu_outputs(params, bank, u):
    """y_t = y_{t-2} + g_t, the increments g_t written out from stu.featurize,
    independently of the kernel stu.forward and the stack use."""
    T = u.shape[1]
    feats = stu.featurize(bank, u)
    scale = bank.sigma[None, None, : params.K, None] ** 0.25
    g = np.einsum("oc,btc->bto", params.M_u[0], u)
    g[:, 1:] += np.einsum("oc,btc->bto", params.M_u[1], u[:, :-1])
    g[:, 2:] += np.einsum("oc,btc->bto", params.M_u[2], u[:, :-2])
    for M, U in ((params.M_phi_plus, feats.U_plus), (params.M_phi_minus, feats.U_minus)):
        g[:, 2:] += np.einsum("koc,btkc->bto", M, (U[:, :, : params.K] * scale)[:, : T - 2])
    for t in range(2, T):
        g[:, t] += g[:, t - 2]
    return g


def reference_logits(model, bank, x):
    """stack_forward written out layer by layer over reference_stu_outputs."""
    cfg = model.config
    h = x @ model.embed_W.T + model.embed_b
    for layer in model.layers:
        if cfg.pre_scale is not None:
            h = cfg.pre_scale * h
        y = reference_stu_outputs(layer.stu, bank, h)
        gate = 1.0 / (1.0 + np.exp(-(y @ layer.W_gate.T + layer.b_gate)))
        h = (y @ layer.W_val.T + layer.b_val) * gate
    pooled = h.mean(axis=1) if cfg.pooling == "mean" else h[:, -1]
    return pooled @ model.readout_W.T + model.readout_b


def randomize(named_arrays, rng, scale=0.3):
    for _, arr in named_arrays:
        arr[:] = scale * rng.standard_normal(arr.shape)


def close(a, b) -> bool:
    """Equal to EXACT_TOL, relative to the reference's scale when above 1."""
    return float(np.abs(a - b).max()) <= EXACT_TOL * max(1.0, float(np.abs(b).max()))


def features_exact(bank, u) -> bool:
    """FFT features against direct summation (criterion 5)."""
    fast, slow = stu.featurize(bank, u), stu.naive_featurize(bank, u)
    return close(fast.U_plus, slow.U_plus) and close(fast.U_minus, slow.U_minus)


def forward_exact(bank, u, K, rng) -> bool:
    """stu.forward with random parameters against reference_stu_outputs."""
    params = stu.StuParams.zeros(K, u.shape[2], u.shape[2])
    randomize(params.named_arrays(), rng)
    return close(stu.forward(params, bank, u), reference_stu_outputs(params, bank, u))


class Workload:
    name = ""
    cycle = 1  # items come in cycles of this length; runs end on a whole cycle
    DEFAULTS: dict = {}

    def __init__(self, **sizes):
        unknown = set(sizes) - set(self.DEFAULTS)
        if unknown:
            raise ValueError(f"unknown sizes for {self.name}: {sorted(unknown)}")
        self.sizes = {**self.DEFAULTS, **sizes}

    def verify(self, draw, losses, caught, tracer) -> None:
        bad = [loss for loss in losses if not math.isfinite(loss)]
        if bad:
            raise ItemFailed(f"non-finite loss {bad}")


class StackTrain(Workload):
    """`train-stack --task delayed_recall` defaults: 1 layer, d_model 8, K=16,
    last pooling, batch 64, Adam at a constant 2e-2."""

    name = "stack_train"
    DEFAULTS = dict(L=256, batch=64, n_train=2048, n_eval=512, d_model=8, K=16, check_batch=4)
    N_LAYERS = 1
    LR = 2e-2

    def setup(self, seed, tracer):
        s = self.sizes
        inputs, labels, n_classes = stack.make_task_dataset(
            "delayed_recall", s["n_train"] + s["n_eval"], s["L"], seed=seed + 1)
        self.bank = build_bank(s["L"], s["K"], tracer)
        self.config = stack.StackConfig(n_layers=self.N_LAYERS, d_model=s["d_model"], K=s["K"],
                                        d_in=inputs.shape[2], n_classes=n_classes,
                                        pooling="last")
        self.model = stack.init_stack(self.config, seed=seed)
        self.opt = optim.Adam()
        self.rng = np.random.default_rng(seed)
        n = s["n_train"]
        self.train = inputs[:n], labels[:n]
        self.eval = inputs[n:], labels[n:]

    def draw(self, i):
        idx = self.rng.integers(0, self.sizes["n_train"], size=self.sizes["batch"])
        return self.train[0][idx], self.train[1][idx]

    def item(self, draw, tracer):
        x, labels = draw
        with tracer.span("stack.gradients"):
            loss, grads = stack.stack_gradients(self.model, self.bank, x, labels)
        with tracer.span("optim.step"):
            self.opt.step(list(self.model.named_arrays()), grads, self.LR)
        return (loss,)

    def check(self, tracer) -> bool:
        x, labels = self.eval
        finite = True
        for start in range(0, len(labels), 256):
            with tracer.span("stack.forward"):
                logits = stack.stack_forward(self.model, self.bank, x[start : start + 256])
            finite &= bool(np.isfinite(logits).all())
        # Analytic gradients against central differences of the forward
        # pass's cross-entropy, on a small batch.
        xc, lc = self.train[0][: self.sizes["check_batch"]], self.train[1][: self.sizes["check_batch"]]
        _, grads = stack.stack_gradients(self.model, self.bank, xc, lc)
        worst = gradcheck(
            lambda: stack.softmax_cross_entropy(stack.stack_forward(self.model, self.bank, xc), lc)[0],
            list(self.model.named_arrays()), grads, np.random.default_rng(0),
        )
        # The fused layer kernel, inside the whole stack with random
        # parameters, against the reference built from stu.featurize.
        rng = np.random.default_rng(1)
        probe = stack.init_stack(self.config, seed=1)
        randomize(probe.named_arrays(), rng)
        exact = features_exact(self.bank, xc) and close(
            stack.stack_forward(probe, self.bank, x[:8]), reference_logits(probe, self.bank, x[:8]))
        return finite and worst <= GRAD_TOL and exact


class LdsFit(Workload):
    """Criterion 6 on the packaged marginal fixture: the convex STU layer
    (K=25, batch 1, Adam 5e-3) on precomputed features, paired with the LRU
    baseline (d_hidden 32, batch 2, Adam 5e-2 on criterion 6's warmup-cosine
    schedule)."""

    name = "lds_fit"
    DEFAULTS = dict(L=256, sequences=32, K=25, d_hidden=32, stu_batch=1, lru_batch=2)
    STU_LR = 5e-3
    LRU_LR = 5e-2
    LRU_STEPS = 12000  # length of the warmup-cosine schedule
    WARMUP_FRAC = 0.05

    def setup(self, seed, tracer):
        s = self.sizes
        system = lds.marginal_fixture()
        self.inputs = lds.random_inputs(s["sequences"], s["L"], system.d_in, seed)
        self.targets = simulate(system, self.inputs, tracer)
        self.bank = build_bank(s["L"], s["K"], tracer)
        with tracer.span("trainer.features"):
            feats = stu.featurize(self.bank, self.inputs)
            scale = self.bank.sigma[None, None, :, None] ** 0.25
            self.features = feats.U_plus * scale, feats.U_minus * scale
        self.stu_params = stu.StuParams.zeros(s["K"], system.d_in, system.d_out)
        self.lru = trainer.init_lru_params(s["d_hidden"], system.d_in, system.d_out,
                                           trainer.LruOptions(max_init_phase=3.14), seed)
        self.stu_opt, self.lru_opt = optim.Adam(), optim.Adam()
        self.rng = np.random.default_rng(seed)

    def draw(self, i):
        n = self.sizes["sequences"]
        lr = optim.lr_at(i, self.LRU_STEPS, self.LRU_LR, "warmup_cosine", self.WARMUP_FRAC)
        return (self.rng.integers(0, n, size=self.sizes["stu_batch"]),
                self.rng.integers(0, n, size=self.sizes["lru_batch"]), lr)

    def _stu_batch(self, idx):
        return self.inputs[idx], self.targets[idx], tuple(f[idx] for f in self.features)

    def item(self, draw, tracer):
        stu_idx, lru_idx, lru_lr = draw
        u, y, feats = self._stu_batch(stu_idx)
        with tracer.span("trainer.stu_step"):
            stu_loss, grads = trainer.stu_loss_and_grads(self.stu_params, self.bank, u, y,
                                                         features=feats)
        with tracer.span("optim.step"):
            self.stu_opt.step(list(self.stu_params.named_arrays()), grads, self.STU_LR)
        with tracer.span("trainer.lru_step"):
            lru_loss, grads = trainer.lru_loss_and_grads(self.lru, self.inputs[lru_idx],
                                                         self.targets[lru_idx])
        with tracer.span("optim.step"):
            self.lru_opt.step(list(self.lru.named_arrays()), grads, lru_lr)
        return stu_loss, lru_loss

    def check(self, tracer) -> bool:
        # The precomputed features must give what the layer computes itself.
        u, y, feats = self._stu_batch(np.array([0]))
        loss, grads = trainer.stu_loss_and_grads(self.stu_params, self.bank, u, y, features=feats)
        own_loss, own_grads = trainer.stu_loss_and_grads(self.stu_params, self.bank, u, y)
        same = math.isclose(loss, own_loss, rel_tol=1e-10) and all(
            np.allclose(grads[k], own_grads[k], rtol=1e-9, atol=1e-12) for k in grads)
        rng = np.random.default_rng(0)
        worst = gradcheck(
            lambda: trainer.stu_loss_and_grads(self.stu_params, self.bank, u, y, features=feats)[0],
            list(self.stu_params.named_arrays()), grads, rng,
        )
        u2, y2 = self.inputs[:2], self.targets[:2]
        _, lru_grads = trainer.lru_loss_and_grads(self.lru, u2, y2)
        worst = max(worst, gradcheck(
            lambda: trainer.lru_loss_and_grads(self.lru, u2, y2)[0],
            list(self.lru.named_arrays()), lru_grads, rng,
        ))
        exact = (features_exact(self.bank, self.inputs[:2])
                 and forward_exact(self.bank, self.inputs[:2], self.sizes["K"], rng))
        return same and worst <= GRAD_TOL and exact


class VerifyLong(Workload):
    """`verify-theorem` system draws at L=4096 with its default largest K=24.

    Item i draws a symmetric system with STATE_SIZES[i % 5] states (dense A
    for odd i, as the command alternates).  The AR prediction's cost grows
    with the state size, so every cycle of five items has the same mix, and
    with an odd number of sizes p50 and p90 fall inside one size rather than
    between two.
    """

    name = "verify_long"
    DEFAULTS = dict(L=4096, K=24, batch=1)
    STATE_SIZES = (1, 4, 8, 12, 16)  # spans the command's 1..16, mean 8.2
    cycle = len(STATE_SIZES)
    CHANNELS = 3
    AR_RTOL = 1e-8
    EXACT_PREFIX = 256  # direct-summation features are O(T^2)

    def setup(self, seed, tracer):
        self.bank = build_bank(self.sizes["L"], self.sizes["K"], tracer)
        self.rng = np.random.default_rng(seed)

    def draw(self, i):
        s = self.sizes
        system = lds.random_symmetric_system(
            self.STATE_SIZES[i % self.cycle], self.CHANNELS, self.CHANNELS,
            radius=float(self.rng.uniform(0.5, 1.0)), seed=int(self.rng.integers(2**31)),
            dense=bool(i % 2),
        )
        u = lds.bounded_inputs(s["batch"], s["L"], self.CHANNELS, seed=int(self.rng.integers(2**31)))
        return system, u

    def item(self, draw, tracer):
        system, u = draw
        K, bank = self.sizes["K"], self.bank
        B, T, C = u.shape
        with tracer.span("theory.construct"):
            params = theory.stu_from_lds(system, bank, K)
        y = simulate(system, u, tracer)
        with tracer.span("stu.forward"):
            y_stu = stu.forward(params, bank, u)
        tracer.note_peak("stu.feature_bytes", 8 * B * T * 2 * K * C)
        with tracer.span("theory.ar_fit"):
            ar = theory.ar_coefficients(system)
        with tracer.span("theory.ar_predict"):
            y_ar = ar.predict(u)
        with tracer.span("trainer.ls_fit"):
            fit = trainer.fit_stu_least_squares((u, y), bank, self.sizes["K"])
        return y, y_stu, y_ar, fit

    def verify(self, draw, out, caught, tracer) -> None:
        system, u = draw
        y, y_stu, y_ar, fit = out
        K, bank = self.sizes["K"], self.bank
        err = float(np.linalg.norm(y - y_stu, axis=2).max())
        bound = theory.theorem_bound(theory.TheoremBoundInputs(
            K=K, L=bank.L, a=float(np.linalg.norm(u, axis=2).max()),
            b_col=theory.max_column_norm(system.B), c_col=theory.max_column_norm(system.C),
            c_const=theory.BOUND_CONSTANT[bank.variant],
        ))
        rel = float(np.abs(y - y_ar).max() / max(float(np.abs(y).max()), 1e-300))
        fit_finite = all(np.isfinite(arr).all() for _, arr in fit.named_arrays())
        if tracer.enabled:
            # Least-squares sub-optimality is reported in the traced run, not
            # failed: the repo's acceptance tolerances accept it today.
            tracer.count("trainer.ls_ridge_fallbacks",
                         sum("ridge" in str(w.message) for w in caught))
            mse_ls = float(np.mean((y - stu.forward(fit, bank, u)) ** 2))
            tracer.count("trainer.ls_optimal", int(mse_ls <= float(np.mean((y - y_stu) ** 2))))

        misses = []
        if not (fit_finite and all(map(math.isfinite, (err, bound, rel)))):
            misses.append("non-finite value")
        if not err <= bound:
            tracer.count("theory.bound_violations")
            misses.append(f"error {err:.3e} exceeds bound {bound:.3e}")
        if not rel <= self.AR_RTOL:
            tracer.count("theory.ar_mismatches")
            misses.append(f"AR relative error {rel:.3e}")
        if misses:
            raise ItemFailed("; ".join(misses))

    def check(self, tracer) -> bool:
        # The theorem bound is loose at this L, so the forward pass is held
        # to the reference here: features on a prefix, outputs at full length.
        rng = np.random.default_rng(1)
        u = lds.bounded_inputs(1, self.sizes["L"], self.CHANNELS, seed=1)
        return (features_exact(self.bank, u[:, : self.EXACT_PREFIX])
                and forward_exact(self.bank, u, self.sizes["K"], rng))


WORKLOADS = {w.name: w for w in (StackTrain, LdsFit, VerifyLong)}
