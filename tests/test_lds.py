import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spectral_ssm import (
    LdsParams,
    load_lds_json,
    marginal_fixture,
    markov_params,
    random_marginal_system,
    save_lds_json,
    simulate_lds,
)
from spectral_ssm.lds import bounded_inputs, linear_scan, random_inputs

from conftest import loop_scan, loop_simulate_lds, rel_error

SCAN_RTOL = 1e-12
RADII = st.one_of(st.just(1.0), st.floats(0.0, 1.0))


def scalar_system(a=0.5, b=1.0, c=1.0, d=0.0):
    return LdsParams(A=np.array([a]), B=np.array([[b]]), C=np.array([[c]]), D=np.array([[d]]))


def symmetric_a(d, rho, dense, rng):
    """A diagonal vector or dense symmetric matrix with spectral radius rho."""
    eig = rho * rng.uniform(-1.0, 1.0, d)
    eig[0] = rho * rng.choice([-1.0, 1.0])
    if not dense:
        return eig
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = (Q * eig) @ Q.T
    return 0.5 * (A + A.T)


def random_system(A, d_in, d_out, rng):
    d = A.shape[0]
    return LdsParams(A=A, B=rng.standard_normal((d, d_in)), C=rng.standard_normal((d_out, d)),
                     D=rng.standard_normal((d_out, d_in)))


def markov_convolve(mats, inputs):
    """Oracle: y_t = M_0 u_t + sum_{j>=1} M_j u_{t+1-j}."""
    B, T, _ = inputs.shape
    d_out = mats[0].shape[0]
    y = inputs @ mats[0].T
    for j in range(1, len(mats)):
        lag = j - 1
        if lag < T:
            y[:, lag:] += inputs[:, : T - lag] @ mats[j].T
    return y


class TestSimulate:
    def test_one_step_memory_when_a_zero(self):
        rng = np.random.default_rng(0)
        B, C, D = rng.standard_normal((3, 2)), rng.standard_normal((2, 3)), rng.standard_normal((2, 2))
        params = LdsParams(A=np.zeros(3), B=B, C=C, D=D)
        u = rng.standard_normal((4, 10, 2))
        y = simulate_lds(params, u)
        np.testing.assert_allclose(y, u @ (C @ B + D).T, atol=1e-14)

    def test_zero_inputs_zero_outputs(self):
        params = random_marginal_system(4, 2, 3, 0.9, seed=1)
        y = simulate_lds(params, np.zeros((2, 8, 2)))
        np.testing.assert_array_equal(y, np.zeros((2, 8, 3)))

    def test_scalar_hand_unroll(self):
        u = np.zeros((1, 4, 1))
        u[0, 0, 0] = 1.0
        y = simulate_lds(scalar_system(), u)
        np.testing.assert_allclose(y.ravel(), [1.0, 0.5, 0.25, 0.125], rtol=1e-15)

    def test_superposition_and_homogeneity(self):
        params = random_marginal_system(5, 2, 2, 0.999, seed=2)
        u1 = random_inputs(3, 32, 2, seed=3)
        u2 = random_inputs(3, 32, 2, seed=4)
        y = simulate_lds(params, u1 + u2)
        np.testing.assert_allclose(
            y, simulate_lds(params, u1) + simulate_lds(params, u2), atol=1e-10
        )
        np.testing.assert_allclose(
            simulate_lds(params, 3.7 * u1), 3.7 * simulate_lds(params, u1), atol=1e-10
        )

    def test_dimension_mismatch(self):
        params = scalar_system()
        with pytest.raises(ValueError):
            simulate_lds(params, np.zeros((1, 4, 2)))
        with pytest.raises(ValueError):
            simulate_lds(params, np.zeros((4, 1)))

    def test_hidden_state_growth_at_most_linear(self):
        # |A_ii| <= 1 and |u_t| <= a bounds the state by a * t * |B|.
        params = random_marginal_system(6, 2, 2, 1.0, seed=5)
        u = bounded_inputs(1, 1024, 2, seed=6)
        x = np.zeros(6)
        bound_per_step = np.linalg.norm(params.B, 2)
        for t in range(1024):
            x = params.A * x + params.B @ u[0, t]
            assert np.linalg.norm(x) <= (t + 1) * bound_per_step + 1e-9


class TestLinearScan:
    @given(kind=st.sampled_from(["diagonal", "complex", "dense"]), d=st.integers(1, 6),
           T=st.integers(1, 70), B=st.sampled_from([1, 3]), rho=RADII, reverse=st.booleans(),
           seed=st.integers(0, 2**16))
    @example(kind="diagonal", d=3, T=1, B=1, rho=1.0, reverse=False, seed=0)
    @example(kind="complex", d=3, T=2, B=3, rho=1.0, reverse=True, seed=1)
    @example(kind="dense", d=4, T=3, B=3, rho=1.0, reverse=False, seed=2)
    @example(kind="dense", d=4, T=64, B=1, rho=1.0, reverse=True, seed=3)
    @example(kind="complex", d=5, T=65, B=3, rho=1.0, reverse=False, seed=4)
    def test_matches_loop(self, kind, d, T, B, rho, reverse, seed):
        rng = np.random.default_rng(seed)
        a = symmetric_a(d, rho, kind == "dense", rng)
        b = rng.standard_normal((B, T, d))
        if kind == "complex":
            a = a * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
            b = b + 1j * rng.standard_normal((B, T, d))
        x = linear_scan(a, b, reverse=reverse)
        assert x.shape == b.shape
        assert rel_error(x, loop_scan(a, b, reverse=reverse)) <= SCAN_RTOL

    @given(dense=st.booleans(), d=st.integers(1, 6), T=st.integers(1, 70),
           B=st.sampled_from([1, 3]), rho=RADII, seed=st.integers(0, 2**16))
    @example(dense=False, d=2, T=1, B=1, rho=1.0, seed=0)
    @example(dense=True, d=3, T=2, B=3, rho=1.0, seed=1)
    @example(dense=True, d=5, T=3, B=1, rho=1.0, seed=2)
    @example(dense=False, d=6, T=3, B=3, rho=1.0, seed=3)
    def test_simulate_matches_loop(self, dense, d, T, B, rho, seed):
        rng = np.random.default_rng(seed)
        params = random_system(symmetric_a(d, rho, dense, rng), 2, 3, rng)
        u = rng.standard_normal((B, T, 2))
        assert rel_error(simulate_lds(params, u), loop_simulate_lds(params, u)) <= SCAN_RTOL

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("T", range(1, 9))
    def test_unstable_short_rollout_raises_no_overflow(self, dense, T):
        # Spectral radius 1e40: the rollout itself applies at most A^7 (1e280),
        # but a scan that formed the unused next power A^8 would overflow.
        rng = np.random.default_rng(T)
        params = random_system(symmetric_a(3, 1e40, dense, rng), 2, 2, rng)
        u = rng.standard_normal((2, T, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = simulate_lds(params, u)
        assert rel_error(y, loop_simulate_lds(params, u)) <= SCAN_RTOL


class TestRandomMarginalSystem:
    def test_diagonal_signs(self):
        params = random_marginal_system(4, 3, 3, 0.9999, seed=7)
        assert params.diagonal
        np.testing.assert_allclose(np.abs(params.A), 0.9999)

    def test_unit_rho_radius(self):
        params = random_marginal_system(4, 2, 2, 1.0, seed=8)
        assert params.spectral_radius() == 1.0

    def test_deterministic_under_seed(self):
        a = random_marginal_system(5, 3, 2, 0.99, seed=9)
        b = random_marginal_system(5, 3, 2, 0.99, seed=9)
        for x, y in ((a.A, b.A), (a.B, b.B), (a.C, b.C), (a.D, b.D)):
            np.testing.assert_array_equal(x, y)

    def test_rectangular_diagonal_d(self):
        params = random_marginal_system(3, 2, 4, 0.9, seed=10)
        assert params.D.shape == (4, 2)
        off = params.D.copy()
        off[np.arange(2), np.arange(2)] = 0.0
        np.testing.assert_array_equal(off, np.zeros((4, 2)))

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            random_marginal_system(2, 2, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            random_marginal_system(2, 2, 2, 1.01, seed=0)


class TestMarkovParams:
    def test_nilpotent_after_first(self):
        rng = np.random.default_rng(11)
        params = LdsParams(
            A=np.zeros(3), B=rng.standard_normal((3, 2)),
            C=rng.standard_normal((2, 3)), D=rng.standard_normal((2, 2)),
        )
        mats = markov_params(params, 5)
        for M in mats[2:]:
            np.testing.assert_array_equal(M, np.zeros((2, 2)))

    def test_scalar_powers(self):
        mats = markov_params(scalar_system(), 3)
        np.testing.assert_allclose([m.item() for m in mats], [0.0, 1.0, 0.5, 0.25], rtol=1e-15)

    def test_horizon_zero(self):
        mats = markov_params(scalar_system(d=2.0), 0)
        assert len(mats) == 1
        np.testing.assert_array_equal(mats[0], [[2.0]])

    def test_convolution_reproduces_simulation(self):
        params = random_marginal_system(5, 3, 2, 0.95, seed=12)
        u = random_inputs(2, 64, 3, seed=13)
        mats = markov_params(params, 64)
        np.testing.assert_allclose(markov_convolve(mats, u), simulate_lds(params, u), atol=1e-10)

    def test_dense_a(self):
        rng = np.random.default_rng(14)
        M = rng.standard_normal((3, 3))
        params = LdsParams(
            A=0.3 * (M + M.T), B=rng.standard_normal((3, 2)),
            C=rng.standard_normal((2, 3)), D=np.zeros((2, 2)),
        )
        u = random_inputs(1, 32, 2, seed=15)
        mats = markov_params(params, 32)
        np.testing.assert_allclose(markov_convolve(mats, u), simulate_lds(params, u), atol=1e-9)


class TestLdsParamsValidation:
    def test_rejects_asymmetric_dense(self):
        with pytest.raises(ValueError, match="symmetric"):
            LdsParams(A=np.array([[0.0, 1.0], [0.0, 0.0]]), B=np.zeros((2, 1)),
                      C=np.zeros((1, 2)), D=np.zeros((1, 1)))

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(ValueError):
            LdsParams(A=np.zeros(2), B=np.zeros((3, 1)), C=np.zeros((1, 2)), D=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            LdsParams(A=np.zeros(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)), D=np.zeros((2, 2)))


class TestFixtureIO:
    def test_round_trip(self, tmp_path):
        params = random_marginal_system(4, 3, 3, 0.9999, seed=16)
        save_lds_json(params, tmp_path / "sys.json")
        loaded = load_lds_json(tmp_path / "sys.json")
        np.testing.assert_array_equal(loaded.A, params.A)
        np.testing.assert_array_equal(loaded.D, params.D)
        assert loaded.diagonal

    def test_dense_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        M = rng.standard_normal((3, 3))
        params = LdsParams(A=0.2 * (M + M.T), B=rng.standard_normal((3, 1)),
                           C=rng.standard_normal((1, 3)), D=np.zeros((1, 1)))
        save_lds_json(params, tmp_path / "sys.json")
        loaded = load_lds_json(tmp_path / "sys.json")
        assert not loaded.diagonal
        np.testing.assert_array_equal(loaded.A, params.A)

    def test_bad_storage_tag(self, tmp_path):
        (tmp_path / "sys.json").write_text('{"storage": "sparse", "A": [], "B": [], "C": [], "D": []}')
        with pytest.raises(ValueError, match="storage"):
            load_lds_json(tmp_path / "sys.json")

    def test_packaged_marginal_fixture(self):
        params = marginal_fixture()
        assert params.diagonal
        np.testing.assert_allclose(np.abs(params.A), 0.9999)
        assert params.B.shape == (4, 3)
        assert params.C.shape == (3, 4)
        assert params.D.shape == (3, 3)
        np.testing.assert_allclose(params.D, np.diag(np.diag(params.D)))
