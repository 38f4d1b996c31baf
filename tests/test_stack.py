import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectral_ssm
from spectral_ssm import (
    StackConfig,
    TrainConfig,
    TrainingDiverged,
    compute_filterbank,
    init_stack,
    make_task_dataset,
    stack_forward,
    stack_gradients,
    train_stack,
)
from spectral_ssm.container import load_arrays, save_arrays
from spectral_ssm.optim import Adam
from spectral_ssm.stack import (TASKS, _TASK_DEFAULTS, evaluate, load_stack, save_stack,
                                softmax_cross_entropy, train_on_dataset)

from conftest import fd_gradcheck, reference_stu_outputs


def small_config(**kw):
    args = dict(n_layers=2, d_model=4, K=4, k_y=0, d_in=2, n_classes=3, pooling="mean")
    args.update(kw)
    return StackConfig(**args)


def composed_logits(model, bank, u):
    """stack_forward written out in the time domain: the embedding, then
    per layer reference_stu_outputs and the GLU, then pooling and the
    readout."""
    cfg = model.config
    x = u @ model.embed_W.T + model.embed_b
    for layer in model.layers:
        y = reference_stu_outputs(layer.stu, bank, x)
        x = (y @ layer.W_val.T + layer.b_val) * (
            1.0 / (1.0 + np.exp(-(y @ layer.W_gate.T + layer.b_gate))))
    pooled = x.mean(axis=1) if cfg.pooling == "mean" else x[:, -1]
    return pooled @ model.readout_W.T + model.readout_b


def workspace_arrays(ws):
    """Each array of a workspace, by key, the nested kernel workspaces' too."""
    out = {}
    for key, v in ws.items():
        if isinstance(v, dict):
            out.update({(key, k): a for k, a in workspace_arrays(v).items()})
        else:
            out[key] = v
    return out


class TestForward:
    def test_zero_model_gives_zero_logits(self, bank64):
        model = init_stack(small_config(), seed=0)
        model.readout_W[:] = 0.0
        model.readout_b[:] = 0.0
        u = np.random.default_rng(0).standard_normal((3, 20, 2))
        np.testing.assert_array_equal(stack_forward(model, bank64, u), np.zeros((3, 3)))

    def test_composition_oracle_single_layer(self, bank64):
        rng = np.random.default_rng(1)
        cfg = small_config(n_layers=1, pooling="mean")
        model = init_stack(cfg, seed=2)
        for name, arr in model.named_arrays():
            if "stu" in name:
                arr += 0.2 * rng.standard_normal(arr.shape)
        u = rng.standard_normal((2, 24, 2))
        np.testing.assert_allclose(stack_forward(model, bank64, u),
                                   composed_logits(model, bank64, u), atol=1e-10)

    def test_batch_permutation_equivariance(self, bank64):
        rng = np.random.default_rng(3)
        model = init_stack(small_config(), seed=4)
        u = rng.standard_normal((5, 16, 2))
        perm = rng.permutation(5)
        np.testing.assert_allclose(
            stack_forward(model, bank64, u[perm]),
            stack_forward(model, bank64, u)[perm],
            atol=1e-12,
        )

    def test_mismatched_bank_raises(self, alt_bank64):
        # init_stack builds primary layers with K=4: an alternative bank or a
        # bank with fewer filters is a model nobody defined.
        model = init_stack(small_config(), seed=5)
        u = np.zeros((2, 16, 2))
        labels = np.array([0, 1])
        with pytest.raises(ValueError, match="variant"):
            stack_forward(model, alt_bank64, u)
        with pytest.raises(ValueError, match="variant"):
            stack_gradients(model, alt_bank64, u, labels)
        with pytest.raises(ValueError, match="filters"):
            stack_gradients(model, compute_filterbank(64, 3), u, labels)

    def test_dimension_checks(self, bank64):
        model = init_stack(small_config(), seed=5)
        with pytest.raises(ValueError):
            stack_forward(model, bank64, np.zeros((1, 16, 3)))
        with pytest.raises(ValueError):
            stack_forward(model, bank64, np.zeros((1, 65, 2)))


class TestGradients:
    def test_zero_model_readout_bias_is_softmax_residual_mean(self, bank64):
        cfg = small_config(n_classes=2)
        model = init_stack(cfg, seed=6)
        model.readout_W[:] = 0.0
        model.readout_b[:] = 0.0
        for name, arr in model.named_arrays():
            if "W_val" in name or "b_val" in name:
                arr[:] = 0.0
        labels = np.array([0, 1, 0, 1])
        u = np.random.default_rng(7).standard_normal((4, 16, 2))
        _, grads = stack_gradients(model, bank64, u, labels)
        probs = np.full((4, 2), 0.5)
        onehot = np.eye(2)[labels]
        np.testing.assert_allclose(grads["readout_b"], (probs - onehot).mean(axis=0), atol=1e-12)

    def test_no_gradient_slot_for_filters(self, bank64):
        model = init_stack(small_config(), seed=8)
        u = np.random.default_rng(9).standard_normal((2, 12, 2))
        _, grads = stack_gradients(model, bank64, u, np.array([0, 1]))
        assert set(grads) == {name for name, _ in model.named_arrays()}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_finite_differences(self, seed):
        bank = compute_filterbank(16, 4)
        rng = np.random.default_rng(seed)
        cfg = small_config()
        model = init_stack(cfg, seed=seed)
        for name, arr in model.named_arrays():
            if "stu" in name:
                arr += 0.2 * rng.standard_normal(arr.shape)
        u = rng.standard_normal((3, 16, 2))
        labels = rng.integers(0, 3, size=3)
        _, grads = stack_gradients(model, bank, u, labels)
        worst = fd_gradcheck(
            lambda: stack_gradients(model, bank, u, labels)[0],
            list(model.named_arrays()),
            grads,
        )
        assert worst <= 1e-5

    def test_ar_variant_finite_differences(self):
        bank = compute_filterbank(16, 3)
        rng = np.random.default_rng(10)
        cfg = small_config(K=3, k_y=2, pooling="last", n_classes=2)
        model = init_stack(cfg, seed=11)
        for name, arr in model.named_arrays():
            if "stu" in name:
                arr += 0.1 * rng.standard_normal(arr.shape)
        u = rng.standard_normal((2, 16, 2))
        labels = np.array([0, 1])
        _, grads = stack_gradients(model, bank, u, labels)
        worst = fd_gradcheck(
            lambda: stack_gradients(model, bank, u, labels)[0],
            list(model.named_arrays()),
            grads,
        )
        assert worst <= 1e-5

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("pooling", ["last", "mean"])
    @pytest.mark.parametrize("k_y", [0, 1])
    def test_no_buffer_leaks_between_steps(self, bank64, n_layers, pooling, k_y):
        # stack_gradients reuses the model's workspace from call to call: no
        # step may read what an earlier one left there, or write into the
        # gradients an earlier one returned.  Batch c has a's batch size and a
        # shorter length with the same FFT length, so it reuses a's padded
        # buffers over a's longer data.  A stack_forward on batch d, of
        # another batch size, between two steps must leave every workspace
        # array in place, and its logits must survive the later steps.
        def make():
            rng = np.random.default_rng(20)
            model = init_stack(small_config(n_layers=n_layers, pooling=pooling, k_y=k_y), seed=21)
            for _, arr in model.named_arrays():
                arr += 0.2 * rng.standard_normal(arr.shape)
            return model

        rng = np.random.default_rng(22)
        a, b, c = ((rng.standard_normal((n, T, 2)), rng.integers(0, 3, n))
                   for n, T in ((3, 24), (5, 20), (3, 20)))
        d = rng.standard_normal((4, 24, 2))
        model = make()
        first = stack_gradients(model, bank64, *a)
        kept = {name: g.copy() for name, g in first[1].items()}
        held = workspace_arrays(model.workspace)
        logits = stack_forward(model, bank64, d)
        after = workspace_arrays(model.workspace)
        assert after.keys() == held.keys() and all(after[k] is held[k] for k in held)
        for batch, (loss, grads) in zip((a, b, a, c), [first] + [
                stack_gradients(model, bank64, *batch) for batch in (b, a, c)]):
            fresh_loss, fresh = stack_gradients(make(), bank64, *batch)
            assert loss == fresh_loss
            for name, g in fresh.items():
                np.testing.assert_array_equal(grads[name], g, err_msg=name)
        for name, g in kept.items():
            np.testing.assert_array_equal(first[1][name], g, err_msg=name)
        np.testing.assert_array_equal(logits, stack_forward(make(), bank64, d))

    def test_blas_thread_count_leaves_steps_bitwise_equal(self, tmp_path):
        # Three training steps at the train-stack task shapes, L = 256 and a
        # batch of 64: delayed_recall (1 layer, d_model 8), parity_prefix
        # (2 layers, d_model 16), and delayed_recall with k_y = 2 and a second
        # layer.  Every array starts perturbed, so every array, not only a
        # second layer's lag-0 tap, is nonzero from the first step.  The
        # second layer's 8 x 8 kernel gives the (35 x 514 x 64) dM product,
        # which rounds with OpenBLAS's thread split when it runs as one
        # product over the interleaved real view of the spectra.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from spectral_ssm import compute_filterbank\n"
            "from spectral_ssm.optim import Adam\n"
            "from spectral_ssm.stack import (_TASK_DEFAULTS, StackConfig, init_stack,\n"
            "                                make_task_dataset, stack_gradients)\n"
            "bank = compute_filterbank(256, 16)\n"
            "out = []\n"
            "for task, kw in (('delayed_recall', {}), ('parity_prefix', {}),\n"
            "                 ('delayed_recall', {'k_y': 2, 'n_layers': 2})):\n"
            "    u, labels, _ = make_task_dataset(task, 64, 256, seed=1)\n"
            "    model = init_stack(StackConfig(**{**_TASK_DEFAULTS[task], **kw}), seed=0)\n"
            "    rng = np.random.default_rng(2)\n"
            "    for _, arr in model.named_arrays():\n"
            "        arr += 0.1 * rng.standard_normal(arr.shape)\n"
            "    opt = Adam()\n"
            "    for _ in range(3):\n"
            "        loss, grads = stack_gradients(model, bank, u, labels)\n"
            "        out += [np.array(loss)] + [grads[name] for name, _ in model.named_arrays()]\n"
            "        opt.step(model.named_arrays(), grads, 1e-2)\n"
            "np.savez(sys.argv[1], *out)\n"
        )
        path = os.pathsep.join([str(Path(spectral_ssm.__file__).parents[1]),
                                os.environ.get("PYTHONPATH", "")])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / f"steps-{threads}.npz"
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
            runs.append(np.load(out))
        for name in runs[0].files:
            assert runs[0][name].tobytes() == runs[1][name].tobytes(), name

    @pytest.mark.parametrize("task", TASKS)
    def test_every_stu_layer_trains_from_init(self, task):
        # From an unperturbed init_stack, layer 0's STU gets a gradient at
        # the first step through the next layer's lag-0 tap, and a next
        # layer's at the second, once layer 0 has moved and passes it input.
        L = 32
        u, labels, n_classes = make_task_dataset(task, 16, L, seed=0)
        cfg = StackConfig(**_TASK_DEFAULTS[task], n_classes=n_classes)
        bank = compute_filterbank(L, cfg.K)
        model = init_stack(cfg, seed=0)
        opt = Adam()
        live = set()
        for _ in range(2):
            _, grads = stack_gradients(model, bank, u, labels)
            live |= {name for name, g in grads.items() if ".stu." in name and np.any(g)}
            opt.step(model.named_arrays(), grads, 1e-2)
        assert live == {name for name, _ in model.named_arrays() if ".stu." in name}

    def test_softmax_cross_entropy_values(self):
        logits = np.array([[0.0, 0.0], [10.0, 0.0]])
        labels = np.array([0, 0])
        loss, dlogits = softmax_cross_entropy(logits, labels)
        expect = 0.5 * (np.log(2.0) + np.log(1 + np.exp(-10.0)))
        assert loss == pytest.approx(expect, rel=1e-12)
        np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)
        # A certain prediction costs +0.0, not -0.0.
        loss, _ = softmax_cross_entropy(np.array([[800.0, 0.0]]), np.array([0]))
        assert loss == 0.0 and not np.signbit(loss)


FOLD_L = 8
FOLD_BANK = compute_filterbank(FOLD_L, 2)


class TestEmbeddingFold:
    # Layer 0 convolves [u, 1] with its kernel composed with the embedding;
    # the oracle forms the embedding in the time domain.  T = 1 and 2 leave
    # the spectral term empty, T = 3 gives it one lag, T = L reaches the last.
    @given(n_layers=st.sampled_from([1, 2]), k_y=st.sampled_from([0, 1, 2]),
           d_in=st.sampled_from([1, 3]), pooling=st.sampled_from(["mean", "last"]),
           T=st.sampled_from([1, 2, 3, FOLD_L]), seed=st.integers(0, 2**16))
    @settings(max_examples=12)
    @example(n_layers=1, k_y=0, d_in=1, pooling="last", T=FOLD_L, seed=0)
    @example(n_layers=2, k_y=1, d_in=3, pooling="mean", T=1, seed=1)
    @example(n_layers=1, k_y=2, d_in=3, pooling="mean", T=2, seed=2)
    @example(n_layers=2, k_y=2, d_in=1, pooling="last", T=3, seed=3)
    @example(n_layers=2, k_y=0, d_in=3, pooling="last", T=FOLD_L, seed=4)
    @example(n_layers=1, k_y=1, d_in=1, pooling="mean", T=FOLD_L, seed=5)
    def test_matches_time_domain_composition_and_central_differences(
            self, n_layers, k_y, d_in, pooling, T, seed):
        cfg = StackConfig(n_layers=n_layers, d_model=3, K=2, k_y=k_y, d_in=d_in, n_classes=2,
                          pooling=pooling)
        rng = np.random.default_rng(seed)
        model = init_stack(cfg, seed=seed)
        for _, arr in model.named_arrays():
            arr += 0.2 * rng.standard_normal(arr.shape)
        u = rng.standard_normal((2, T, d_in))
        labels = rng.integers(0, 2, size=2)
        ref = composed_logits(model, FOLD_BANK, u)
        assert np.abs(stack_forward(model, FOLD_BANK, u) - ref).max() <= 1e-10 * np.abs(ref).max()
        _, grads = stack_gradients(model, FOLD_BANK, u, labels)
        worst = fd_gradcheck(
            lambda: stack_gradients(model, FOLD_BANK, u, labels)[0],
            list(model.named_arrays()),
            grads,
        )
        assert worst <= 1e-5


class TestTasks:
    def test_delayed_recall_shapes_and_labels(self):
        u, labels, n_classes = make_task_dataset("delayed_recall", 16, 256, seed=0, delay=0, block=32)
        assert u.shape == (16, 256, 1) and labels.shape == (16,) and n_classes == 2
        np.testing.assert_array_equal(labels, (u[:, -1, 0] > 0).astype(int))
        # tokens constant over blocks
        blocks = u.reshape(16, 8, 32)
        assert np.all(blocks.min(axis=2) == blocks.max(axis=2))

    def test_delayed_recall_mid_delay_label(self):
        u, labels, _ = make_task_dataset("delayed_recall", 8, 256, seed=1, delay=128, block=32)
        np.testing.assert_array_equal(labels, (u[:, 127, 0] > 0).astype(int))

    def test_deterministic(self):
        a = make_task_dataset("parity_prefix", 8, 64, seed=5)
        b = make_task_dataset("parity_prefix", 8, 64, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_parity_labels(self):
        u, labels, _ = make_task_dataset("parity_prefix", 32, 16, seed=2)
        np.testing.assert_array_equal(labels, ((u[:, :, 0] > 0).sum(axis=1) % 2))

    def test_noisy_lds_class_balanced_ish(self):
        _, labels, _ = make_task_dataset("noisy_lds_class", 512, 64, seed=3)
        assert 0.2 <= labels.mean() <= 0.8

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task"):
            make_task_dataset("copy", 4, 16, seed=0)
        with pytest.raises(ValueError, match="delay"):
            make_task_dataset("delayed_recall", 4, 16, seed=0, delay=16)
        for block in (0, -4):
            with pytest.raises(ValueError, match="block"):
                make_task_dataset("delayed_recall", 4, 16, seed=0, block=block)

    def test_misspelt_keyword(self):
        with pytest.raises(TypeError):
            make_task_dataset("parity_prefix", 4, 8, seed=0, dealy=3)


class TestTraining:
    def test_full_batch_overfit_eight_examples(self):
        bank = compute_filterbank(32, 8)
        u, labels, _ = make_task_dataset("delayed_recall", 8, 32, seed=4, delay=16, block=8)
        cfg = StackConfig(n_layers=1, d_model=8, K=8, d_in=1, n_classes=2, pooling="last")
        model = init_stack(cfg, seed=0)
        tc = TrainConfig(learning_rate=2e-2, steps=400, batch_size=8, seed=0,
                         lr_schedule="warmup_cosine", warmup_frac=0.05)
        report = train_on_dataset(model, bank, (u, labels), tc)
        assert report.loss_curve[-1] <= 0.01
        assert report.metrics["train_accuracy"] == 1.0

    def test_deterministic_under_seed(self):
        bank = compute_filterbank(32, 4)
        u, labels, _ = make_task_dataset("parity_prefix", 32, 32, seed=5)
        cfg = StackConfig(n_layers=1, d_model=4, K=4, d_in=1, n_classes=2)
        tc = TrainConfig(learning_rate=1e-2, steps=30, batch_size=8, seed=7)
        r1 = train_on_dataset(init_stack(cfg, seed=7), bank, (u, labels), tc)
        r2 = train_on_dataset(init_stack(cfg, seed=7), bank, (u, labels), tc)
        np.testing.assert_array_equal(r1.loss_curve, r2.loss_curve)

    def test_divergence_reports_partial_curve(self):
        bank = compute_filterbank(32, 4)
        u, labels, _ = make_task_dataset("parity_prefix", 16, 32, seed=5)
        cfg = StackConfig(n_layers=1, d_model=4, K=4, d_in=1, n_classes=2)
        tc = TrainConfig(learning_rate=1e200, steps=50, batch_size=8, seed=7)
        with pytest.raises(TrainingDiverged) as err, np.errstate(over="ignore", invalid="ignore"):
            train_on_dataset(init_stack(cfg, seed=7), bank, (u, labels), tc)
        report = err.value.report
        assert report.diverged and report.divergence_step == err.value.step
        assert len(report.loss_curve) == err.value.step + 1
        assert not np.isfinite(report.loss_curve[-1])

    def test_random_labels_give_chance_accuracy(self):
        rng = np.random.default_rng(6)
        bank = compute_filterbank(64, 8)
        u, labels, _ = make_task_dataset("delayed_recall", 768, 64, seed=8, delay=32, block=16)
        shuffled = rng.permutation(labels[:512])
        cfg = StackConfig(n_layers=1, d_model=8, K=8, d_in=1, n_classes=2, pooling="last")
        model = init_stack(cfg, seed=9)
        tc = TrainConfig(learning_rate=5e-3, steps=150, batch_size=32, seed=0)
        train_on_dataset(model, bank, (u[:512], shuffled), tc)
        held, _ = evaluate(model, bank, u[512:], labels[512:])
        assert 0.3 <= held <= 0.7

    def test_checkpoint_round_trip(self, tmp_path, bank64):
        rng = np.random.default_rng(12)
        model = init_stack(small_config(k_y=1, pooling="last"), seed=13)
        for name, arr in model.named_arrays():
            arr += 0.1 * rng.standard_normal(arr.shape)
        meta, arrays = load_arrays(save_stack(model, tmp_path / "ckpt"))
        assert "pre_scale" not in meta
        # Checkpoints written while pre_scale was a setting carry
        # "pre_scale": null and load as before; one that sets it asks for a
        # rescaling no stack applies, so it must not load.
        save_arrays(tmp_path / "old", {**meta, "pre_scale": None}, arrays)
        u = rng.standard_normal((2, 20, 2))
        for directory in ("ckpt", "old"):
            loaded = load_stack(tmp_path / directory)
            assert loaded.config == model.config
            np.testing.assert_array_equal(
                stack_forward(loaded, bank64, u), stack_forward(model, bank64, u)
            )
        with pytest.raises(ValueError, match="pre_scale"):
            load_stack(save_arrays(tmp_path / "scaled", {**meta, "pre_scale": 0.5}, arrays))

    def test_pre_scale_is_not_a_setting(self):
        with pytest.raises(TypeError):
            small_config(pre_scale=0.5)

    def test_train_stack_delay_zero_fast(self):
        tc = TrainConfig(learning_rate=1e-2, steps=250, batch_size=32, seed=0,
                         lr_schedule="warmup_cosine", warmup_frac=0.05)
        report = train_stack("delayed_recall", tc, L=64, n_train=512, n_eval=128,
                             delay=0, block=16)
        assert report.metrics["eval_accuracy"] >= 0.99
