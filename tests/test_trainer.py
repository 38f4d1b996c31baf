import copy

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spectral_ssm import (
    HankelVariant,
    LruOptions,
    StuParams,
    TrainConfig,
    TrainingDiverged,
    compute_filterbank,
    fit_lru,
    fit_stu,
    fit_stu_least_squares,
    init_lru_params,
    k_sweep,
    lru_forward,
    marginal_fixture,
)
from spectral_ssm.lds import random_inputs, simulate_lds
from spectral_ssm.stu import forward, layer_streams, parity_cumsum, stack_m
from spectral_ssm.trainer import LruParams, lru_loss_and_grads, stu_loss_and_grads, stu_mse

from conftest import fd_gradcheck, loop_lru_loss_and_grads, rel_error


def make_realizable(bank, K, n=6, T=64, d_in=2, d_out=2, seed=0, k_y=0):
    rng = np.random.default_rng(seed)
    params = StuParams.zeros(K, d_in, d_out, k_y=k_y)
    for _, arr in params.named_arrays():
        arr += 0.2 * rng.standard_normal(arr.shape)
    if k_y:
        params.M_y *= 0.3  # keep the learned recursion stable
    inputs = rng.standard_normal((n, T, d_in))
    return inputs, forward(params, bank, inputs), params


class TestStuGradients:
    @pytest.mark.parametrize("k_y", [0, 2])
    def test_matches_finite_differences(self, k_y):
        bank = compute_filterbank(16, 4)
        rng = np.random.default_rng(1)
        params = StuParams.zeros(4, 2, 2, k_y=k_y)
        for _, arr in params.named_arrays():
            arr += 0.1 * rng.standard_normal(arr.shape)
        u = rng.standard_normal((2, 16, 2))
        y = rng.standard_normal((2, 16, 2))
        _, grads = stu_loss_and_grads(params, bank, u, y)
        worst = fd_gradcheck(
            lambda: stu_loss_and_grads(params, bank, u, y)[0],
            list(params.named_arrays()),
            grads,
        )
        assert worst <= 1e-5

    def test_convexity_along_segments(self, bank64):
        # Midpoint inequality for the k_y = 0 loss on random parameter pairs.
        rng = np.random.default_rng(2)
        u = rng.standard_normal((2, 32, 2))
        y = rng.standard_normal((2, 32, 2))

        def loss_of(pa):
            return stu_mse(pa, bank64, u, y)

        for _ in range(100):
            a = StuParams.zeros(6, 2, 2)
            b = StuParams.zeros(6, 2, 2)
            mid = StuParams.zeros(6, 2, 2)
            for (_, xa), (_, xb), (_, xm) in zip(
                a.named_arrays(), b.named_arrays(), mid.named_arrays()
            ):
                xa += rng.standard_normal(xa.shape)
                xb += rng.standard_normal(xb.shape)
                xm += 0.5 * (xa + xb)
            assert loss_of(mid) <= 0.5 * (loss_of(a) + loss_of(b)) + 1e-9


class TestFitStu:
    def test_zero_output_dataset_stays_optimal(self, bank64):
        u = random_inputs(4, 64, 2, seed=3)
        targets = np.zeros((4, 64, 2))
        report = fit_stu((u, targets), bank64, 8, 0, TrainConfig(steps=50, seed=0))
        assert np.all(report.loss_curve <= 1e-20)

    def test_recovers_realizable_parameters(self, bank64):
        inputs, targets, truth = make_realizable(bank64, 4, n=8, T=64, seed=4)
        params = fit_stu_least_squares((inputs, targets), bank64, 4)
        assert stu_mse(params, bank64, inputs, targets) <= 1e-6
        for (_, a), (_, b) in zip(params.named_arrays(), truth.named_arrays()):
            assert np.abs(a - b).max() <= 1e-3

    def test_gradient_training_approaches_least_squares(self):
        # Well-conditioned instance (cond(F) ~ 3e2) so first-order training can
        # actually close the gap to the convex optimum.
        bank = compute_filterbank(16, 2)
        rng = np.random.default_rng(5)
        inputs, clean, _ = make_realizable(bank, 2, n=8, T=16, d_in=1, d_out=1, seed=5)
        targets = clean + 0.1 * rng.standard_normal(clean.shape)
        ls = fit_stu_least_squares((inputs, targets), bank, 2)
        floor = stu_mse(ls, bank, inputs, targets)
        cfg = TrainConfig(learning_rate=1e-2, steps=3000, batch_size=8, seed=0,
                          lr_schedule="warmup_cosine", warmup_frac=0.02)
        report = fit_stu((inputs, targets), bank, 2, 0, cfg)
        final = stu_mse(report.final_params, bank, inputs, targets)
        assert final <= 1.01 * floor

    def test_deterministic_under_seed(self, bank64):
        inputs, targets, _ = make_realizable(bank64, 4, n=4, T=32, seed=6)
        cfg = TrainConfig(learning_rate=1e-2, steps=40, batch_size=2, seed=9)
        r1 = fit_stu((inputs, targets), bank64, 4, 0, cfg)
        r2 = fit_stu((inputs, targets), bank64, 4, 0, cfg)
        np.testing.assert_array_equal(r1.loss_curve, r2.loss_curve)
        for (_, a), (_, b) in zip(
            r1.final_params.named_arrays(), r2.final_params.named_arrays()
        ):
            np.testing.assert_array_equal(a, b)

    def test_learns_output_coupling(self, bank64):
        # k_y = 1: M_y starts at zero and is trained with the other matrices.
        inputs, targets, _ = make_realizable(bank64, 2, n=4, T=24, d_in=1, d_out=1, seed=30, k_y=1)
        cfg = TrainConfig(learning_rate=1e-2, steps=60, batch_size=2, seed=1)
        r1 = fit_stu((inputs, targets), bank64, 2, 1, cfg)
        r2 = fit_stu((inputs, targets), bank64, 2, 1, cfg)
        assert np.abs(r1.final_params.M_y).max() > 0
        assert r1.loss_curve[-10:].mean() < r1.loss_curve[:10].mean()
        np.testing.assert_array_equal(r1.loss_curve, r2.loss_curve)
        for (_, a), (_, b) in zip(r1.final_params.named_arrays(), r2.final_params.named_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_divergence_raises_with_step_index(self, bank64):
        inputs, targets, _ = make_realizable(bank64, 4, n=2, T=32, seed=7)
        cfg = TrainConfig(learning_rate=1e200, steps=200, batch_size=2, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            fit_stu((inputs, 1e6 * targets), bank64, 4, 0, cfg)
        assert err.value.step < 200
        assert err.value.report.diverged

    def test_empty_dataset_rejected(self, bank64):
        with pytest.raises(ValueError, match="empty"):
            fit_stu((np.zeros((0, 8, 1)), np.zeros((0, 8, 1))), bank64, 4, 0, TrainConfig())


class TestLeastSquares:
    def test_realizable_interpolation(self, bank64):
        inputs, targets, _ = make_realizable(bank64, 6, n=8, T=64, seed=8)
        params = fit_stu_least_squares((inputs, targets), bank64, 6)
        assert stu_mse(params, bank64, inputs, targets) <= 1e-10

    def test_matches_forward_parameterization(self, bank64):
        # The fitted parameters reproduce the linear model least squares
        # solves: the streams of the parity-summed inputs, contracted with
        # the stacked matrices, are the layer outputs.
        inputs, targets, _ = make_realizable(bank64, 5, n=4, T=48, seed=9)
        params = fit_stu_least_squares((inputs, targets), bank64, 5)
        F = layer_streams(bank64, 5, parity_cumsum(inputs))
        y = np.einsum("jcbt,joc->bto", F, stack_m(params))
        assert rel_error(forward(params, bank64, inputs), y) <= 1e-10

    def test_lds_dataset_residual_below_bound(self, bank256):
        from spectral_ssm.theory import BOUND_CONSTANT, TheoremBoundInputs, theorem_bound
        from spectral_ssm.theory import max_column_norm
        from spectral_ssm.lds import bounded_inputs

        system = marginal_fixture()
        u = bounded_inputs(4, 256, 3, seed=10)
        y = simulate_lds(system, u)
        params = fit_stu_least_squares((u, y), bank256, 24)
        resid = stu_mse(params, bank256, u, y)
        bound = theorem_bound(TheoremBoundInputs(
            K=24, L=256, a=1.0, b_col=max_column_norm(system.B),
            c_col=max_column_norm(system.C), c_const=BOUND_CONSTANT[HankelVariant.PRIMARY],
        ))
        assert resid <= bound

    def test_feature_budget_enforced(self, bank256):
        u = np.zeros((1, 256, 200))  # (3 + 48) * 200 > 10^4 features
        y = np.zeros((1, 256, 1))
        with pytest.raises(ValueError, match="feature dimension"):
            fit_stu_least_squares((u, y), bank256, 24)

    def test_all_zero_dataset_gives_zero_params(self, bank64):
        params = fit_stu_least_squares((np.zeros((1, 32, 2)), np.zeros((1, 32, 2))), bank64, 4)
        for _, arr in params.named_arrays():
            np.testing.assert_array_equal(arr, 0.0)


class TestKSweep:
    def test_nonincreasing_errors(self, bank256):
        system = marginal_fixture()
        rows = k_sweep(system, [2, 4, 8, 12, 16], bank256, TrainConfig(seed=0), n_sequences=4)
        errs = [e for _, e in rows]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12

    def test_fixture_ratio_and_slope(self, bank256):
        system = marginal_fixture()
        rows = dict(k_sweep(system, list(range(4, 16)), bank256, TrainConfig(seed=0)))
        assert rows[15] / rows[5] <= 0.1
        ks = sorted(rows)
        slope = np.polyfit(ks, np.log([rows[k] for k in ks]), 1)[0]
        assert slope < 0

    def test_requires_ascending(self, bank256):
        with pytest.raises(ValueError, match="ascending"):
            k_sweep(marginal_fixture(), [8, 4], bank256, TrainConfig(seed=0))

    def test_sgd_method(self, bank64):
        cfg = TrainConfig(learning_rate=5e-3, steps=60, batch_size=2, seed=0)
        system = marginal_fixture()
        rows = k_sweep(system, [2, 4], bank64, cfg, n_sequences=2, method="sgd")
        assert len(rows) == 2 and all(np.isfinite(e) for _, e in rows)
        # Each error is the trained parameters' MSE over the whole dataset, as
        # for "ls", not the loss of the last minibatch before the last update.
        inputs = random_inputs(2, bank64.L, system.d_in, cfg.seed)
        targets = simulate_lds(system, inputs)
        for K, err in rows:
            params = fit_stu((inputs, targets), bank64, K, 0, cfg).final_params
            assert err == stu_mse(params, bank64, inputs, targets)

    def test_noise_floor(self, bank64):
        rows_clean = k_sweep(marginal_fixture(), [12], bank64, TrainConfig(seed=0), n_sequences=2)
        rows_noisy = k_sweep(marginal_fixture(), [12], bank64, TrainConfig(seed=0),
                             n_sequences=2, noise_std=1e-2)
        assert rows_noisy[0][1] > rows_clean[0][1]
        # in-sample residual ~ sigma^2 (1 - n_features / n_rows)
        assert 0.2e-4 <= rows_noisy[0][1] <= 1.5e-4


class TestLruForward:
    def test_hand_unroll_real_half(self):
        params = LruParams(
            nu_log=np.log(-np.log(np.array([0.5]))), theta_log=np.array([-np.inf]),
            B_re=np.array([[1.0]]), B_im=np.array([[0.0]]),
            C_re=np.array([[1.0]]), C_im=np.array([[0.0]]), D=np.array([[0.0]]),
            gamma_norm=False,
        )
        u = np.zeros((1, 3, 1))
        u[0, 0, 0] = 1.0
        np.testing.assert_allclose(lru_forward(params, u).ravel(), [1.0, 0.5, 0.25], rtol=1e-12)

    def test_memoryless_limit(self):
        rng = np.random.default_rng(11)
        params = init_lru_params(4, 2, 2, LruOptions(), seed=12)
        params.nu_log[:] = np.log(50.0)  # |lambda| = exp(-50) ~ 0
        u = rng.standard_normal((2, 8, 2))
        out = lru_forward(params, u)
        gamma = params.gamma()
        s_re = u @ params.B_re.T
        s_im = u @ params.B_im.T
        expect = (gamma * s_re) @ params.C_re.T - (gamma * s_im) @ params.C_im.T + u @ params.D.T
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_gamma_coupling_is_input_scaling(self):
        rng = np.random.default_rng(13)
        base = init_lru_params(3, 2, 2, LruOptions(gamma_norm=False), seed=14)
        coupled = copy.deepcopy(base)
        coupled.gamma_norm = True
        u = rng.standard_normal((1, 12, 2))
        mag, _ = base.lam_polar()
        scaled = copy.deepcopy(base)
        scale = np.sqrt(1 - mag**2)
        scaled.B_re = base.B_re * scale[:, None]
        scaled.B_im = base.B_im * scale[:, None]
        np.testing.assert_allclose(
            lru_forward(coupled, u), lru_forward(scaled, u), atol=1e-12
        )

    def test_unstable_eigenvalue_rejected(self):
        params = init_lru_params(2, 1, 1, LruOptions(stable_exp=False), seed=15)
        params.nu_log[:] = -0.1  # raw decay < 0 => |lambda| > 1
        with pytest.raises(ValueError, match="unstable"):
            lru_forward(params, np.zeros((1, 4, 1)))


class TestLruTraining:
    @pytest.mark.parametrize("stable_exp", [True, False])
    @pytest.mark.parametrize("gamma_norm", [True, False])
    def test_gradients_match_finite_differences(self, stable_exp, gamma_norm):
        rng = np.random.default_rng(16)
        options = LruOptions(stable_exp=stable_exp, gamma_norm=gamma_norm,
                             ring_init=(0.4, 0.8), max_init_phase=3.0)
        params = init_lru_params(3, 2, 2, options, seed=17)
        u = rng.standard_normal((2, 16, 2))
        y = rng.standard_normal((2, 16, 2))
        _, grads = lru_loss_and_grads(params, u, y)
        worst = fd_gradcheck(
            lambda: lru_loss_and_grads(params, u, y)[0],
            list(params.named_arrays()),
            grads,
        )
        assert worst <= 1e-5

    @given(stable_exp=st.booleans(), gamma_norm=st.booleans(), d_h=st.integers(1, 8),
           T=st.integers(1, 48), B=st.sampled_from([1, 3]), seed=st.integers(0, 2**16))
    @example(stable_exp=True, gamma_norm=True, d_h=4, T=1, B=1, seed=0)
    @example(stable_exp=False, gamma_norm=True, d_h=3, T=2, B=3, seed=1)
    @example(stable_exp=True, gamma_norm=False, d_h=2, T=3, B=3, seed=2)
    @example(stable_exp=False, gamma_norm=False, d_h=8, T=33, B=1, seed=3)
    def test_loss_and_gradients_match_loop(self, stable_exp, gamma_norm, d_h, T, B, seed):
        rng = np.random.default_rng(seed)
        options = LruOptions(stable_exp=stable_exp, gamma_norm=gamma_norm, ring_init=(0.3, 0.999))
        params = init_lru_params(d_h, 2, 2, options, seed=seed)
        params.D[:] = rng.standard_normal(params.D.shape)
        u = rng.standard_normal((B, T, 2))
        y = rng.standard_normal((B, T, 2))
        loss, grads = lru_loss_and_grads(params, u, y)
        ref_loss, ref_grads = loop_lru_loss_and_grads(params, u, y)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert set(grads) == set(ref_grads)
        for name, ref in ref_grads.items():
            assert rel_error(grads[name], ref) <= 1e-12, name

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(18)
        u = rng.standard_normal((4, 24, 2))
        y = rng.standard_normal((4, 24, 1))
        cfg = TrainConfig(learning_rate=5e-2, steps=30, batch_size=2, seed=3)
        r1 = fit_lru((u, y), 4, cfg)
        r2 = fit_lru((u, y), 4, cfg)
        np.testing.assert_array_equal(r1.loss_curve, r2.loss_curve)

    def test_learns_simple_system(self):
        # Short-memory target: easily fit within a small budget.
        from spectral_ssm.lds import LdsParams

        system = LdsParams(A=np.array([0.5]), B=np.array([[1.0]]),
                           C=np.array([[1.0]]), D=np.array([[0.0]]))
        u = random_inputs(8, 32, 1, seed=19)
        y = simulate_lds(system, u)
        cfg = TrainConfig(learning_rate=3e-2, steps=600, batch_size=4, seed=0,
                          lr_schedule="warmup_cosine")
        report = fit_lru((u, y), 4, cfg, LruOptions(ring_init=(0.3, 0.9)))
        assert report.loss_curve[-20:].mean() <= 0.05 * float((y**2).mean())

    def test_divergence_reports_partial_curve(self):
        rng = np.random.default_rng(20)
        u = rng.standard_normal((2, 32, 1))
        y = 100.0 * rng.standard_normal((2, 32, 1))
        options = LruOptions(stable_exp=False, gamma_norm=False, ring_init=(0.0, 1.0))
        cfg = TrainConfig(learning_rate=5.0, steps=2000, batch_size=2, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            fit_lru((u, y), 8, cfg, options)
        assert err.value.report.diverged
        assert len(err.value.report.loss_curve) == err.value.step + 1
        assert err.value.report.metrics["options"] == options.to_dict()


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_frac=1.0)
