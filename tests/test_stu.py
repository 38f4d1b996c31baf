import copy
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spectral_ssm import stu
from spectral_ssm import (
    HankelVariant,
    StuParams,
    compute_filterbank,
    featurize,
    load_stu_params,
    naive_featurize,
    save_stu_params,
)
from spectral_ssm.trainer import stu_loss_and_grads

from conftest import (
    fd_gradcheck,
    loop_output_adjoint,
    loop_recurse_outputs,
    reference_cumulative_features,
    reference_stu_outputs,
    reference_streams,
    rel_error,
)

PRIMARY, ALT = HankelVariant.PRIMARY, HankelVariant.ALTERNATIVE


def random_params(rng, K, d_in, d_out, variant=PRIMARY, k_y=0, scale=0.3):
    params = StuParams.zeros(K, d_in, d_out, variant=variant, k_y=k_y)
    for _, arr in params.named_arrays():
        arr += scale * rng.standard_normal(arr.shape)
    return params


class TestFeaturize:
    def test_impulse_reads_filters(self, bank64):
        u = np.zeros((1, 32, 1))
        u[0, 0, 0] = 1.0
        feats = featurize(bank64, u)
        for t in range(32):
            np.testing.assert_allclose(feats.U_plus[0, t, :, 0], bank64.phi[:, t], atol=1e-12)
            np.testing.assert_allclose(
                feats.U_minus[0, t, :, 0], (-1.0) ** t * bank64.phi[:, t], atol=1e-12
            )

    def test_zero_inputs(self, bank64):
        feats = featurize(bank64, np.zeros((2, 16, 3)))
        np.testing.assert_array_equal(feats.U_plus, 0.0)
        np.testing.assert_array_equal(feats.U_minus, 0.0)

    @pytest.mark.parametrize("L", [1, 2, 3, 16, 128, 512])
    @pytest.mark.parametrize("K", [1, 8, 24])
    def test_fft_matches_naive(self, L, K):
        if K > L:
            pytest.skip("bank needs K <= L")
        bank = compute_filterbank(max(L, K), K)
        rng = np.random.default_rng(L * 31 + K)
        u = rng.standard_normal((2, L, 3))
        fast = featurize(bank, u)
        slow = naive_featurize(bank, u)
        np.testing.assert_allclose(fast.U_plus, slow.U_plus, atol=1e-10)
        np.testing.assert_allclose(fast.U_minus, slow.U_minus, atol=1e-10)

    def test_single_step(self, bank64):
        u = np.full((1, 1, 2), 1.7)
        feats = naive_featurize(bank64, u)
        np.testing.assert_allclose(feats.U_plus[0, 0], np.outer(bank64.phi[:, 0], [1.7, 1.7]))

    def test_alternating_partial_sums(self, bank64):
        u = np.ones((1, 16, 1))
        feats = naive_featurize(bank64, u)
        k = 3
        signs = (-1.0) ** np.arange(16)
        expect = np.cumsum(bank64.phi[k, :16] * signs)
        np.testing.assert_allclose(feats.U_minus[0, :, k, 0], expect, atol=1e-12)

    def test_sequence_longer_than_bank(self, bank64):
        with pytest.raises(ValueError, match="exceeds bank length"):
            featurize(bank64, np.zeros((1, 65, 1)))
        with pytest.raises(ValueError, match="exceeds bank length"):
            naive_featurize(bank64, np.zeros((1, 65, 1)))


class TestStuForward:
    def test_zero_params_zero_output(self, bank64):
        params = StuParams.zeros(8, 3, 2)
        u = np.random.default_rng(0).standard_normal((2, 48, 3))
        np.testing.assert_array_equal(stu.forward(params, bank64, u), np.zeros((2, 48, 2)))

    def test_parity_prefix_sum_with_identity_tap(self, bank64):
        params = StuParams.zeros(4, 2, 2)
        params.M_u[0] = np.eye(2)
        rng = np.random.default_rng(1)
        u = rng.standard_normal((1, 17, 2))
        y = stu.forward(params, bank64, u)
        for t in range(17):
            np.testing.assert_allclose(y[0, t], u[0, t % 2 :: 2][: t // 2 + 1].sum(axis=0), atol=1e-12)

    def test_linear_in_inputs(self, bank64):
        rng = np.random.default_rng(2)
        params = random_params(rng, 8, 3, 2)
        u1 = rng.standard_normal((2, 40, 3))
        u2 = rng.standard_normal((2, 40, 3))
        np.testing.assert_allclose(
            stu.forward(params, bank64, u1 + u2),
            stu.forward(params, bank64, u1) + stu.forward(params, bank64, u2),
            atol=1e-10,
        )

    def test_linear_in_each_family(self, bank64):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((1, 32, 2))
        base = StuParams.zeros(6, 2, 2)
        doubled_total = np.zeros((1, 32, 2))
        for family in ("M_u", "M_phi_plus", "M_phi_minus"):
            solo = StuParams.zeros(6, 2, 2)
            getattr(solo, family)[:] = rng.standard_normal(getattr(solo, family).shape)
            getattr(base, family)[:] = getattr(solo, family)
            y1 = stu.forward(solo, bank64, u)
            solo2 = copy.deepcopy(solo)
            getattr(solo2, family)[:] *= 2.0
            np.testing.assert_allclose(stu.forward(solo2, bank64, u), 2.0 * y1, atol=1e-10)
            doubled_total += y1
        # components add up to the full forward pass
        np.testing.assert_allclose(stu.forward(base, bank64, u), doubled_total, atol=1e-10)

    def test_causality(self, bank64):
        rng = np.random.default_rng(4)
        params = random_params(rng, 8, 2, 2)
        u = rng.standard_normal((1, 30, 2))
        y = stu.forward(params, bank64, u)
        perturbed = u.copy()
        s = 17
        perturbed[0, s] += 1.0
        y2 = stu.forward(params, bank64, perturbed)
        # FFT roundoff leaks ~1e-16 everywhere; causality holds to that level.
        np.testing.assert_allclose(y2[0, :s], y[0, :s], atol=1e-12)
        assert np.abs(y2[0, s:] - y[0, s:]).max() > 1e-3

    def test_variant_and_k_mismatch(self, bank64, alt_bank64):
        params = StuParams.zeros(8, 2, 2)
        with pytest.raises(ValueError):
            stu.forward(params, alt_bank64, np.zeros((1, 8, 2)))
        alt = StuParams.zeros(8, 2, 2, variant=ALT)
        with pytest.raises(ValueError, match="variant"):
            stu.forward(alt, bank64, np.zeros((1, 8, 2)))
        big = StuParams.zeros(bank64.K + 1, 2, 2)
        with pytest.raises(ValueError):
            stu.forward(big, bank64, np.zeros((1, 8, 2)))


class TestArStuForward:
    def test_identity_lag_two_recovers_vanilla(self, bank64):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((2, 33, 2))
        plain = random_params(rng, 6, 2, 2)
        ar = copy.deepcopy(plain)
        ar.M_y = np.zeros((2, 2, 2))
        ar.M_y[1] = np.eye(2)
        np.testing.assert_allclose(
            stu.forward(ar, bank64, u), stu.forward(plain, bank64, u), atol=1e-12
        )

    def test_zero_params(self, bank64):
        params = StuParams.zeros(4, 2, 2, k_y=3)
        np.testing.assert_array_equal(
            stu.forward(params, bank64, np.ones((1, 16, 2))), np.zeros((1, 16, 2))
        )

    def test_hand_unroll_scalar(self, bank64):
        params = StuParams.zeros(4, 1, 1, k_y=1)
        params.M_y[0] = np.array([[0.5]])
        params.M_u[0] = np.array([[1.0]])
        u = np.zeros((1, 3, 1))
        u[0, 0, 0] = 1.0
        y = stu.forward(params, bank64, u)
        np.testing.assert_allclose(y.ravel(), [1.0, 0.5, 0.25], rtol=1e-15)


class TestAltStuForward:
    def test_zero_params(self, alt_bank64):
        params = StuParams.zeros(6, 2, 2, variant=ALT)
        np.testing.assert_array_equal(
            stu.forward(params, alt_bank64, np.ones((1, 12, 2))), np.zeros((1, 12, 2))
        )

    def test_tap_only_matches_primary_behavior(self, bank64, alt_bank64):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((1, 24, 2))
        alt = StuParams.zeros(6, 2, 2, variant=ALT)
        pri = StuParams.zeros(6, 2, 2)
        taps = rng.standard_normal((3, 2, 2))
        alt.M_u[:], pri.M_u[:] = taps, taps
        np.testing.assert_allclose(
            stu.forward(alt, alt_bank64, u), stu.forward(pri, bank64, u), atol=1e-12
        )

    def test_variant_checks(self, bank64, alt_bank64):
        params = StuParams.zeros(6, 2, 2, variant=ALT)
        with pytest.raises(ValueError):
            stu.forward(params, bank64, np.zeros((1, 8, 2)))
        pri = StuParams.zeros(6, 2, 2)
        with pytest.raises(ValueError):
            stu.forward(pri, alt_bank64, np.zeros((1, 8, 2)))

    def test_uses_plus_features_only(self, alt_bank64):
        params = StuParams.zeros(6, 1, 1, variant=ALT)
        assert params.M_phi_minus.shape == (0, 1, 1)
        rng = np.random.default_rng(7)
        params.M_phi_plus[:] = rng.standard_normal(params.M_phi_plus.shape)
        u = rng.standard_normal((1, 20, 1))
        y = stu.forward(params, alt_bank64, u)
        feats = featurize(alt_bank64, u)
        scaled_plus = feats.U_plus[:, :, :6] * alt_bank64.sigma[None, None, :6, None] ** 0.25
        g = np.zeros((1, 20, 1))
        g[:, 2:] = np.einsum("koc,btkc->bto", params.M_phi_plus, scaled_plus[:, :18])
        expect = g.copy()
        expect[:, 0::2] = np.cumsum(expect[:, 0::2], axis=1)
        expect[:, 1::2] = np.cumsum(expect[:, 1::2], axis=1)
        np.testing.assert_allclose(y, expect, atol=1e-10)


@lru_cache(maxsize=None)
def small_bank(L, variant):
    return compute_filterbank(L, min(L, 8), variant)


@st.composite
def kernel_cases(draw):
    """(variant, L, bank K, K, T, k_y, batch, d_in, d_out, seed) with
    1 <= K <= bank K <= L <= 32 and 1 <= T <= L."""
    variant = draw(st.sampled_from([PRIMARY, ALT]))
    L = draw(st.integers(1, 32))
    bank_K = draw(st.integers(1, min(L, 8)))
    return (
        variant, L, bank_K, draw(st.integers(1, bank_K)), draw(st.integers(1, L)),
        draw(st.integers(0, 2)), draw(st.sampled_from([1, 3])),
        draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2**16)),
    )


@st.composite
def stream_cases(draw):
    """(variant, L, bank K, [(K, T), ...], batch, d_in, seed) with
    1 <= K <= bank K <= L <= 64 and 1 <= T <= L for every call."""
    variant = draw(st.sampled_from([PRIMARY, ALT]))
    L = draw(st.integers(1, 64))
    bank_K = draw(st.integers(1, L))
    calls = draw(st.lists(st.tuples(st.integers(1, bank_K), st.integers(1, L)), min_size=1, max_size=4))
    return variant, L, bank_K, calls, draw(st.sampled_from([1, 3])), draw(st.integers(1, 2)), draw(st.integers(0, 2**16))


class TestLayerStreams:
    # fit_stu's streams and the least-squares features (the streams of the
    # parity-summed input) against direct summation.  Several (K, T) calls
    # share one bank and its spectrum cache; T = 1 and 2 leave the spectral
    # streams empty, T = 3 gives them one lag, and T = L reaches the last
    # filter lag.
    @given(case=stream_cases())
    @example(case=(PRIMARY, 8, 4, [(3, 1), (4, 2), (1, 3), (2, 8)], 3, 2, 0))
    @example(case=(ALT, 8, 4, [(3, 1), (4, 2), (1, 3), (2, 8)], 1, 1, 1))
    @example(case=(PRIMARY, 64, 64, [(64, 64), (5, 1), (5, 2), (5, 3)], 1, 2, 2))
    @example(case=(ALT, 64, 40, [(40, 64), (7, 3), (7, 64)], 3, 1, 3))
    def test_match_direct_summation(self, case):
        variant, L, bank_K, calls, B, d_in, seed = case
        bank = compute_filterbank(L, bank_K, variant)
        u = np.random.default_rng(seed).standard_normal((B, L, d_in))
        for K, T in calls:
            x = u[:, :T]
            streams = stu.layer_streams(bank, K, x).transpose(2, 3, 0, 1)
            assert rel_error(streams, reference_streams(bank, K, x)) <= 1e-12
            features = stu.layer_streams(bank, K, stu.parity_cumsum(x)).transpose(2, 3, 0, 1)
            assert rel_error(features, reference_cumulative_features(bank, K, x)) <= 1e-12

    def test_negative_k_is_rejected_and_zero_keeps_the_taps(self, bank64):
        from spectral_ssm.trainer import fit_stu_least_squares

        u = np.random.default_rng(0).standard_normal((2, 16, 2))
        with pytest.raises(ValueError, match="K must be non-negative"):
            stu.layer_streams(bank64, -2, u)
        with pytest.raises(ValueError, match="K must be non-negative"):
            fit_stu_least_squares((u, u), bank64, -1)
        assert stu.layer_streams(bank64, 0, u).shape == (3, 2, 2, 16)
        assert fit_stu_least_squares((u, u), bank64, 0).K == 0


class TestSpectralKernel:
    # The spectral term is delayed two steps: T = 1 and 2 leave it empty and
    # T = 3 gives it one lag.  These edges always run, on both variants and
    # every k_y; each T <= 3 has both families with the y_{t-2} coupling
    # folded into the basis (k_y = 0) and with the companion scan (k_y = 1).
    @given(case=kernel_cases())
    @example(case=(PRIMARY, 8, 4, 3, 1, 0, 1, 2, 2, 0))
    @example(case=(ALT, 8, 4, 4, 1, 2, 3, 1, 2, 1))
    @example(case=(PRIMARY, 8, 4, 2, 2, 1, 3, 2, 1, 2))
    @example(case=(ALT, 8, 4, 1, 2, 0, 1, 2, 2, 3))
    @example(case=(PRIMARY, 3, 3, 3, 3, 2, 3, 2, 2, 4))
    @example(case=(ALT, 3, 2, 2, 3, 1, 1, 1, 1, 5))
    @example(case=(PRIMARY, 32, 8, 8, 3, 0, 3, 2, 2, 6))
    @example(case=(PRIMARY, 8, 4, 4, 1, 1, 3, 2, 1, 11))
    @example(case=(ALT, 8, 4, 2, 1, 0, 3, 1, 2, 12))
    @example(case=(ALT, 8, 4, 3, 1, 1, 1, 2, 2, 13))
    @example(case=(PRIMARY, 8, 4, 3, 2, 0, 3, 1, 2, 14))
    @example(case=(ALT, 8, 4, 4, 2, 1, 3, 2, 1, 15))
    @example(case=(PRIMARY, 8, 4, 2, 3, 1, 1, 2, 2, 16))
    @example(case=(ALT, 8, 4, 4, 3, 0, 3, 2, 2, 17))
    # T = L = 32: the FFT length is exactly 2T, so a basis tap past T - 1
    # would wrap around into the first outputs.
    @example(case=(PRIMARY, 32, 8, 8, 32, 0, 3, 2, 2, 7))
    @example(case=(PRIMARY, 32, 8, 6, 32, 2, 1, 1, 2, 8))
    @example(case=(ALT, 32, 8, 8, 32, 0, 1, 2, 1, 9))
    @example(case=(ALT, 32, 8, 5, 32, 2, 3, 1, 2, 10))
    def test_matches_naive_reference_and_central_differences(self, case):
        variant, L, bank_K, K, T, k_y, B, d_in, d_out, seed = case
        bank = small_bank(L, variant).head(bank_K)
        rng = np.random.default_rng(seed)
        params = random_params(rng, K, d_in, d_out, variant=variant, k_y=k_y)
        u = rng.standard_normal((B, T, d_in))
        y, cache = stu.spectral_forward(params, bank, u)
        ref = reference_stu_outputs(params, bank, u)
        assert np.abs(y - ref).max() <= 1e-10 * np.abs(ref).max()
        # The adjoint of the linear functional <w, y> against central differences.
        w = rng.standard_normal(y.shape)
        dx, grads = stu.spectral_backward(params, cache, w)
        # The M gradients against the increment adjoint contracted with the
        # direct-summation streams: <w, y> = sum_t <lam_t, g_t>.
        lam = stu.output_adjoint(params, w)
        ref = np.einsum("bto,btjc->joc", lam, reference_streams(bank, K, u))
        dM = np.concatenate([grads["M_u"], grads["M_phi_plus"], grads["M_phi_minus"]])
        assert rel_error(dM, ref) <= 1e-10
        worst = fd_gradcheck(
            lambda: float(np.sum(w * stu.forward(params, bank, u))),
            [(name, arr) for name, arr in params.named_arrays() if arr.size] + [("inputs", u)],
            {**grads, "inputs": dx},
        )
        assert worst <= 1e-5
        # The trainer's feature-cached step: the kernel path's loss, and
        # gradients that match central differences.
        targets = rng.standard_normal(y.shape)
        full = stu.featurize(bank, u)
        scale = bank.sigma[:K, None] ** 0.25
        feats = (full.U_plus[:, :, :K] * scale,
                 full.U_minus[:, :, :K] * scale if variant is PRIMARY else None)
        loss, grads = stu_loss_and_grads(params, bank, u, targets, features=feats)
        own_loss = stu_loss_and_grads(params, bank, u, targets)[0]
        assert abs(loss - own_loss) <= 1e-10 * own_loss
        worst = fd_gradcheck(
            lambda: stu_loss_and_grads(params, bank, u, targets, features=feats)[0],
            [(name, arr) for name, arr in params.named_arrays() if arr.size],
            grads,
        )
        assert worst <= 1e-5

    def test_rejects_mismatched_channels_and_length(self, bank64):
        params = StuParams.zeros(4, 2, 3)
        with pytest.raises(ValueError, match="channels"):
            stu.spectral_forward(params, bank64, np.zeros((1, 8, 3)))
        with pytest.raises(ValueError, match="exceeds bank length"):
            stu.spectral_forward(params, bank64, np.zeros((1, 65, 2)))


@st.composite
def recursion_cases(draw):
    """(k_y, d_out, T, batch, companion spectral radius, seed)."""
    return (
        draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 300)),
        draw(st.sampled_from([1, 3])), draw(st.floats(0.5, 1.0)), draw(st.integers(0, 2**16)),
    )


class TestOutputRecursion:
    # The companion-form scans against the step-by-step loops.  T <= k_y
    # leaves lags of M_y unused; radius 1 is the marginally stable edge.
    @given(case=recursion_cases())
    @example(case=(1, 1, 1, 1, 1.0, 0))
    @example(case=(2, 3, 2, 3, 0.5, 1))
    @example(case=(3, 8, 3, 1, 1.0, 2))
    @example(case=(3, 2, 300, 3, 1.0, 3))
    @example(case=(2, 8, 300, 1, 0.5, 4))
    def test_scans_match_loops(self, case):
        k_y, d, T, B, radius, seed = case
        rng = np.random.default_rng(seed)
        M_y = rng.standard_normal((k_y, d, d))
        companion = np.eye(k_y * d, k=-d)
        companion[:d] = np.concatenate(list(M_y), axis=1)
        # Scaling M_y[i-1] by c^i scales every companion eigenvalue by c.
        c = radius / np.abs(np.linalg.eigvals(companion)).max()
        params = StuParams.zeros(1, 1, d, k_y=k_y)
        params.M_y[:] = M_y * (c ** np.arange(1, k_y + 1))[:, None, None]
        g = rng.standard_normal((B, T, d))
        assert rel_error(stu.recurse_outputs(params, g), loop_recurse_outputs(params, g)) <= 1e-12
        assert rel_error(stu.output_adjoint(params, g), loop_output_adjoint(params, g)) <= 1e-12


class TestStuParams:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StuParams(variant=PRIMARY, K=3, d_in=2, d_out=2,
                      M_u=np.zeros((2, 2, 2)), M_phi_plus=np.zeros((3, 2, 2)),
                      M_phi_minus=np.zeros((3, 2, 2)))
        with pytest.raises(ValueError):
            StuParams(variant=ALT, K=3, d_in=2, d_out=2,
                      M_u=np.zeros((3, 2, 2)), M_phi_plus=np.zeros((3, 2, 2)),
                      M_phi_minus=np.zeros((3, 2, 2)))  # ALT wants empty minus

    def test_serialization_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        params = random_params(rng, 5, 3, 2, k_y=2)
        save_stu_params(params, tmp_path / "p")
        loaded = load_stu_params(tmp_path / "p")
        assert loaded.variant is PRIMARY and loaded.K == 5 and loaded.k_y == 2
        for (_, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_serialization_checksum(self, tmp_path):
        params = StuParams.zeros(2, 1, 1)
        d = save_stu_params(params, tmp_path / "p")
        payload = bytearray((d / "payload.f64le").read_bytes())
        payload[3] ^= 1
        (d / "payload.f64le").write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="checksum"):
            load_stu_params(d)
