from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spectral_ssm import (
    LdsParams,
    TheoremBoundInputs,
    approximation_report,
    ar_coefficients,
    simulate_lds,
    stu_from_lds,
    theorem_bound,
)
from spectral_ssm.lds import bounded_inputs, random_inputs, random_symmetric_system
from spectral_ssm.theory import characteristic_polynomial, constructive_k_sweep

from conftest import ar_rounding_bound, loop_ar_predict


class TestTheoremBound:
    def base(self, **kw):
        args = dict(K=24, L=256, a=1.0, b_col=1.0, c_col=1.0, c_const=2e6)
        args.update(kw)
        return TheoremBoundInputs(**args)

    def test_linear_in_input_bound(self):
        assert theorem_bound(self.base(a=2.0)) == pytest.approx(2 * theorem_bound(self.base()))

    def test_adding_log_l_filters_damps_by_fixed_factor(self):
        lnL = np.log(256.0)
        b1 = theorem_bound(self.base())
        b2 = theorem_bound(self.base(K=24 + lnL))
        assert b2 / b1 == pytest.approx(np.exp(-np.pi**2 / 4), rel=1e-12)

    def test_direct_evaluation(self):
        expect = 2e6 * 256**3 * np.exp(-(np.pi**2 / 4) * 24 / np.log(256))
        assert theorem_bound(self.base()) == pytest.approx(expect, rel=1e-12)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            TheoremBoundInputs(K=24, L=256, a=-1.0, b_col=1.0, c_col=1.0, c_const=2e6)


class TestStuFromLds:
    def test_zero_a_hits_first_filter_tap(self, bank64):
        lds = LdsParams(A=np.zeros(1), B=np.array([[2.0]]), C=np.array([[3.0]]),
                        D=np.array([[0.5]]))
        params = stu_from_lds(lds, bank64, 8)
        np.testing.assert_allclose(params.M_u[0], [[6.5]])
        np.testing.assert_allclose(params.M_u[1], [[0.0]])
        np.testing.assert_allclose(params.M_u[2], [[-0.5]])
        # mu(0) = -e_1, so each plus matrix is -phi_k(0) sigma_k^{-1/4} (c x b)
        for k in range(8):
            expect = -bank64.phi[k, 0] * bank64.sigma[k] ** -0.25 * 6.0
            assert params.M_phi_plus[k, 0, 0] == pytest.approx(expect, rel=1e-12)
        np.testing.assert_array_equal(params.M_phi_minus, np.zeros((8, 1, 1)))

    def test_identity_a_kills_spectral_part(self, bank64):
        rng = np.random.default_rng(0)
        lds = LdsParams(A=np.ones(3), B=rng.standard_normal((3, 2)),
                        C=rng.standard_normal((2, 3)), D=np.zeros((2, 2)))
        params = stu_from_lds(lds, bank64, 8)
        np.testing.assert_array_equal(params.M_phi_plus, 0.0)
        np.testing.assert_array_equal(params.M_phi_minus, 0.0)
        np.testing.assert_allclose(params.M_u[1], lds.C @ lds.B, rtol=1e-12)

    def test_marginal_fixture_within_bound(self, bank256):
        from spectral_ssm import marginal_fixture

        lds = marginal_fixture()
        params = stu_from_lds(lds, bank256, 24)
        assert params.variant is bank256.variant
        u = bounded_inputs(2, 256, 3, seed=1)
        rep = approximation_report(lds, params, bank256, u)
        assert rep.satisfied
        assert rep.constant_used == 2e6

    def test_rejects_unstable_or_asymmetric(self, bank64):
        lds = LdsParams(A=np.array([1.01]), B=np.ones((1, 1)), C=np.ones((1, 1)),
                        D=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="radius"):
            stu_from_lds(lds, bank64, 4)

    def test_basis_invariance(self, bank256):
        rng = np.random.default_rng(2)
        lds = random_symmetric_system(6, 2, 2, radius=0.98, seed=3)
        u = bounded_inputs(1, 256, 2, seed=4)
        base = approximation_report(lds, stu_from_lds(lds, bank256, 16), bank256, u)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = LdsParams(A=Q @ lds.A @ Q.T, B=Q @ lds.B, C=lds.C @ Q.T, D=lds.D)
        rot = approximation_report(rotated, stu_from_lds(rotated, bank256, 16), bank256, u)
        assert abs(base.max_err - rot.max_err) <= 1e-9

    def test_monotone_in_k(self, bank256):
        lds = random_symmetric_system(8, 2, 2, radius=0.999, seed=5)
        u = bounded_inputs(1, 256, 2, seed=6)
        rows = constructive_k_sweep(lds, bank256, u, [4, 8, 12, 16, 20, 24])
        errs = [e for _, e, _ in rows]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12

    def test_negative_slope_in_log_error(self, bank256):
        lds = random_symmetric_system(8, 2, 2, radius=0.999, seed=7)
        u = bounded_inputs(1, 256, 2, seed=8)
        rows = constructive_k_sweep(lds, bank256, u, list(range(4, 25, 4)))
        logs = np.log([e for _, e, _ in rows])
        slope = np.polyfit([k for k, _, _ in rows], logs, 1)[0]
        assert slope < 0


class TestAltStuFromLds:
    def test_identity_and_negative_identity_kill_spectral(self, alt_bank64):
        rng = np.random.default_rng(9)
        for diag in (np.ones(3), -np.ones(3)):
            lds = LdsParams(A=diag, B=rng.standard_normal((3, 2)),
                            C=rng.standard_normal((2, 3)), D=np.zeros((2, 2)))
            params = stu_from_lds(lds, alt_bank64, 8)
            np.testing.assert_array_equal(params.M_phi_plus, 0.0)

    def test_random_system_within_bound(self, alt_bank256):
        lds = random_symmetric_system(8, 3, 3, radius=0.99, seed=10)
        params = stu_from_lds(lds, alt_bank256, 24)
        assert params.variant is alt_bank256.variant
        u = bounded_inputs(1, 256, 3, seed=11)
        rep = approximation_report(lds, params, alt_bank256, u)
        assert rep.satisfied
        assert rep.constant_used == 1e6


class TestApproximationReport:
    def test_zero_inputs_zero_error(self, bank64):
        lds = random_symmetric_system(3, 2, 2, radius=0.9, seed=12)
        params = stu_from_lds(lds, bank64, 8)
        rep = approximation_report(lds, params, bank64, np.zeros((1, 64, 2)))
        assert rep.max_err == 0.0
        assert rep.satisfied

    def test_report_fields(self, bank64):
        lds = random_symmetric_system(3, 2, 2, radius=0.9, seed=13)
        params = stu_from_lds(lds, bank64, 8)
        u = bounded_inputs(2, 64, 2, seed=14)
        rep = approximation_report(lds, params, bank64, u)
        assert rep.per_t_err.shape == (64,)
        assert rep.max_err == pytest.approx(rep.per_t_err.max())
        doc = asdict(rep)
        assert set(doc) >= {"max_err", "bound", "satisfied", "constant_used", "per_t_err"}


class TestArCoefficients:
    def test_scalar_closed_form(self):
        lds = LdsParams(A=np.array([0.7]), B=np.array([[2.0]]), C=np.array([[3.0]]),
                        D=np.array([[1.5]]))
        rep = ar_coefficients(lds)
        assert rep.alpha == pytest.approx([0.7])
        # Lag-0 response is CB + D; the lag-1 coefficient reduces to -a*D.
        assert rep.Gamma[0].item() == pytest.approx(3 * 2 + 1.5)
        assert rep.Gamma[1].item() == pytest.approx(-0.7 * 1.5)

    def test_zero_a_memoryless(self):
        lds = LdsParams(A=np.zeros(1), B=np.array([[2.0]]), C=np.array([[3.0]]),
                        D=np.array([[1.5]]))
        rep = ar_coefficients(lds)
        assert rep.alpha == pytest.approx([0.0])
        assert rep.Gamma[0].item() == pytest.approx(7.5)
        assert rep.Gamma[1].item() == pytest.approx(0.0)

    def test_characteristic_polynomial_dense_vs_roots(self):
        rng = np.random.default_rng(15)
        M = rng.standard_normal((5, 5))
        lds_dense = LdsParams(A=0.3 * (M + M.T), B=np.zeros((5, 1)), C=np.zeros((1, 5)),
                              D=np.zeros((1, 1)))
        p = characteristic_polynomial(lds_dense)
        roots = np.sort(np.roots(p[::-1]))
        np.testing.assert_allclose(roots, np.sort(np.linalg.eigvalsh(lds_dense.A)), atol=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_reproduction(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        lds = random_symmetric_system(d, 2, 2, radius=0.99, seed=seed + 50,
                                      dense=bool(seed % 2))
        u = random_inputs(2, 200, 2, seed=seed + 500)
        y = simulate_lds(lds, u)
        y_ar = ar_coefficients(lds).predict(u)
        assert np.abs(y - y_ar).max() <= 1e-8 * np.abs(y).max()

    @given(d=st.integers(1, 16), T=st.integers(1, 64), B=st.sampled_from([1, 3]),
           dense=st.booleans(), rho=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
           seed=st.integers(0, 2**16))
    @example(d=16, T=1, B=1, dense=True, rho=1.0, seed=0)
    @example(d=16, T=16, B=3, dense=False, rho=1.0, seed=1)
    @example(d=8, T=3, B=3, dense=True, rho=0.5, seed=2)
    @example(d=1, T=2, B=1, dense=False, rho=1.0, seed=3)
    @example(d=14, T=56, B=3, dense=False, rho=1.0, seed=1702)
    def test_predict_matches_loop(self, d, T, B, dense, rho, seed):
        ar = ar_coefficients(random_symmetric_system(d, 2, 2, radius=rho, seed=seed, dense=dense))
        u = random_inputs(B, T, 2, seed=seed + 1)
        ref = loop_ar_predict(ar, u)
        # 1e-12 relative, unless the recursion amplifies its own rounding
        # further: with many poles near the unit circle no float64 evaluation
        # order, the loop's included, is that close to the exact result.
        tol = np.maximum(1e-12 * np.abs(ref).max(), 2 * ar_rounding_bound(ar, u, ref))
        assert np.all(np.abs(ar.predict(u) - ref) <= tol)
