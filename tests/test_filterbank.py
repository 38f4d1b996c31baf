import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigvalsh

from spectral_ssm import (
    HankelVariant,
    compute_filterbank,
    eigenvalue_decay_bound,
    hankel_entry,
    hankel_matrix,
    hankel_matvec,
    load_filterbank,
    mu_vector,
    projection_residual,
    save_filterbank,
)
from spectral_ssm.filterbank import _lanczos_topk

from conftest import VARIANTS

PRIMARY, ALT = HankelVariant.PRIMARY, HankelVariant.ALTERNATIVE


class TestHankelEntry:
    def test_first_entry_primary(self):
        assert hankel_entry(1, 1, PRIMARY) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_odd_sum_vanishes_alternative(self):
        assert hankel_entry(1, 2, ALT) == 0.0

    def test_first_entry_alternative(self):
        assert hankel_entry(1, 1, ALT) == pytest.approx(16.0 / 15.0, rel=1e-15)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rejects_bad_indices(self, variant):
        with pytest.raises(ValueError):
            hankel_entry(0, 1, variant)
        with pytest.raises(ValueError):
            hankel_entry(1, -2, variant)

    @given(i=st.integers(1, 64), j=st.integers(1, 64), alt=st.booleans())
    @settings(max_examples=200)
    def test_symmetry(self, i, j, alt):
        v = ALT if alt else PRIMARY
        assert hankel_entry(i, j, v) == hankel_entry(j, i, v)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_dense_matrix(self, variant):
        Z = hankel_matrix(9, variant)
        for i in range(1, 10):
            for j in range(1, 10):
                assert Z[i - 1, j - 1] == pytest.approx(hankel_entry(i, j, variant), abs=1e-18)


class TestHankelMatvec:
    def test_single_entry(self):
        out = hankel_matvec(1, PRIMARY, np.array([1.0]))
        assert out == pytest.approx([1.0 / 3.0])

    def test_first_basis_vector_gives_column(self):
        e1 = np.zeros(8)
        e1[0] = 1.0
        out = hankel_matvec(8, PRIMARY, e1)
        expect = [2.0 / ((1 + j) ** 3 - (1 + j)) for j in range(1, 9)]
        np.testing.assert_allclose(out, expect, rtol=1e-14)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_vector(self, variant):
        np.testing.assert_array_equal(hankel_matvec(16, variant, np.zeros(16)), np.zeros(16))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_dense_product(self, variant):
        rng = np.random.default_rng(3)
        for L in range(1, 129):
            Z = hankel_matrix(L, variant)
            v = rng.standard_normal(L)
            dense = Z @ v
            fast = hankel_matvec(L, variant, v)
            assert np.linalg.norm(fast - dense) <= 1e-12 * max(np.linalg.norm(dense), 1e-300)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hankel_matvec(8, PRIMARY, np.zeros(7))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_psd_witness(self, variant):
        rng = np.random.default_rng(11)
        Z = hankel_matrix(64, variant)
        for _ in range(100):
            v = rng.standard_normal(64)
            v /= np.linalg.norm(v)
            assert v @ (Z @ v) >= -1e-10


class TestComputeFilterbank:
    def test_two_by_two_closed_form(self):
        # Eigenvalues of [[1/3, 1/12], [1/12, 1/30]] by the quadratic formula.
        a, b, c = 1.0 / 3.0, 1.0 / 12.0, 1.0 / 30.0
        tr, det = a + c, a * c - b * b
        lo = (tr - np.sqrt(tr**2 - 4 * det)) / 2
        hi = (tr + np.sqrt(tr**2 - 4 * det)) / 2
        bank = compute_filterbank(2, 2, PRIMARY)
        np.testing.assert_allclose(bank.sigma, [hi, lo], rtol=1e-12)
        for k in range(2):
            Z = hankel_matrix(2, PRIMARY)
            np.testing.assert_allclose(Z @ bank.phi[k], bank.sigma[k] * bank.phi[k], atol=1e-14)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_invariants(self, variant, bank64, alt_bank64):
        bank = bank64 if variant is PRIMARY else alt_bank64
        assert np.all(np.diff(bank.sigma) <= 0)
        assert np.all(bank.sigma >= 0)
        np.testing.assert_allclose(np.linalg.norm(bank.phi, axis=1), 1.0, rtol=1e-12)
        gram = bank.phi @ bank.phi.T
        np.testing.assert_allclose(gram, np.eye(bank.K), atol=1e-8)
        for k in range(bank.K):
            lead = bank.phi[k][np.abs(bank.phi[k]) > 1e-8 * np.abs(bank.phi[k]).max()]
            assert lead[0] > 0

    def test_residuals_matrix_free(self, bank256):
        for k in range(bank256.K):
            r = hankel_matvec(256, PRIMARY, bank256.phi[k]) - bank256.sigma[k] * bank256.phi[k]
            assert np.linalg.norm(r) <= 1e-8 * max(1.0, bank256.sigma[0])

    @pytest.mark.parametrize("L", [64, 256])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_decay_envelope(self, L, variant):
        bank = compute_filterbank(L, min(48, L), variant)
        bound = eigenvalue_decay_bound(np.arange(1, bank.K + 1), L)
        assert np.all(bank.sigma <= bound)

    def test_top_eigenvalue_below_trace_alternative(self):
        bank = compute_filterbank(256, 1, ALT)
        trace = sum(hankel_entry(i, i, ALT) for i in range(1, 257))
        assert bank.sigma[0] <= trace

    def test_scaled_phi(self, bank64):
        np.testing.assert_allclose(
            bank64.scaled_phi, bank64.sigma[:, None] ** 0.25 * bank64.phi, rtol=1e-15
        )

    def test_lanczos_agrees_with_dense(self):
        dense = compute_filterbank(512, 8, PRIMARY, method="dense")
        lcz = compute_filterbank(512, 8, PRIMARY, method="lanczos")
        np.testing.assert_allclose(lcz.sigma, dense.sigma, rtol=1e-9)
        np.testing.assert_allclose(lcz.phi, dense.phi, atol=1e-7)

    @given(
        variant=st.sampled_from(VARIANTS),
        shape=st.integers(1, 512).flatmap(lambda L: st.tuples(st.just(L), st.integers(1, L))),
    )
    @example(variant=PRIMARY, shape=(64, 16))
    @example(variant=ALT, shape=(64, 16))
    @example(variant=PRIMARY, shape=(256, 256))
    @example(variant=ALT, shape=(256, 255))
    @example(variant=PRIMARY, shape=(1, 1))
    @example(variant=ALT, shape=(2, 2))
    @example(variant=PRIMARY, shape=(2, 1))
    @example(variant=PRIMARY, shape=(3, 3))
    @example(variant=ALT, shape=(3, 2))
    @settings(max_examples=25)
    def test_lanczos_matches_dense_past_the_numerical_rank(self, variant, shape):
        # K may exceed the numerical rank, where Lanczos breaks down and must
        # restart.  Lanczos accepts Ritz pairs with residuals below tol, so each
        # eigenvalue is within tol of dense and each eigenvector within
        # sqrt(2) tol / gap, the gap being to the rest of the spectrum.
        L, K = shape
        dense = compute_filterbank(L, K, variant, method="dense")
        lcz = compute_filterbank(L, K, variant, method="lanczos")  # validate() runs inside
        tol = 1e-10 * max(1.0, dense.sigma[0])
        np.testing.assert_allclose(lcz.sigma, dense.sigma, rtol=0, atol=tol)
        spectrum = np.append(eigvalsh(hankel_matrix(L, variant)), np.inf)  # L = 1 has no gap
        gaps = np.array([np.partition(np.abs(spectrum - s), 1)[1] for s in dense.sigma])
        err = np.abs(lcz.phi - dense.phi).max(axis=1)
        assert np.all(err <= 2 * tol / gaps), np.max(err * gaps / tol)

    def test_auto_lanczos_past_the_numerical_rank(self):
        # Above DENSE_EIGH_MAX, K = 32 exceeds the numerical rank at L = 8192;
        # validate() runs inside.
        full = compute_filterbank(8192, 32)
        head = compute_filterbank(8192, 16)
        np.testing.assert_allclose(full.sigma[:16], head.sigma, rtol=0, atol=2e-10)

    def test_lanczos_nonconvergence_reports_iterations(self):
        with pytest.raises(RuntimeError, match=r"\d+ iterations"):
            _lanczos_topk(256, PRIMARY, 24, max_iter=25)

    def test_auto_dispatches_to_lanczos_beyond_dense_cutoff(self):
        # L above the dense threshold: construction must stay matrix-free and
        # still satisfy every bank invariant (validate runs inside).
        bank = compute_filterbank(4100, 4, PRIMARY, method="auto")
        assert bank.sigma[0] == pytest.approx(0.3604, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            compute_filterbank(8, 9)
        with pytest.raises(ValueError):
            compute_filterbank(8, 0)
        with pytest.raises(ValueError):
            compute_filterbank(0, 1)

    def test_head(self, bank64):
        sub = bank64.head(4)
        np.testing.assert_array_equal(sub.sigma, bank64.sigma[:4])
        np.testing.assert_array_equal(sub.phi, bank64.phi[:4])
        with pytest.raises(ValueError):
            bank64.head(17)


class TestMuVector:
    def test_vanishes_at_one(self):
        np.testing.assert_array_equal(mu_vector(1.0, 8, PRIMARY), np.zeros(8))

    def test_zero_alpha_first_coordinate(self):
        expect = np.zeros(8)
        expect[0] = -1.0
        np.testing.assert_array_equal(mu_vector(0.0, 8, PRIMARY), expect)

    def test_vanishes_at_minus_one_alternative(self):
        np.testing.assert_array_equal(mu_vector(-1.0, 8, ALT), np.zeros(8))

    @given(alpha=st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_primary_norm_bound(self, alpha):
        assert np.sum(mu_vector(alpha, 64, PRIMARY) ** 2) <= 1.0 + 1e-12

    @given(alpha=st.floats(-1.0, 1.0))
    @settings(max_examples=200)
    def test_alternative_norm_bound(self, alpha):
        assert np.sum(mu_vector(alpha, 64, ALT) ** 2) <= 1.0 + 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mu_vector(-0.1, 8, PRIMARY)
        with pytest.raises(ValueError):
            mu_vector(1.5, 8, ALT)

    def test_entries_formula(self):
        alpha = 0.63
        v = mu_vector(alpha, 6, PRIMARY)
        np.testing.assert_allclose(v, (alpha - 1) * alpha ** np.arange(6), rtol=1e-15)
        w = mu_vector(-alpha, 6, ALT)
        np.testing.assert_allclose(w, (alpha**2 - 1) * (-alpha) ** np.arange(6), rtol=1e-15)


class TestProjectionResidual:
    def test_full_bank_reproduces(self):
        bank = compute_filterbank(16, 16, PRIMARY)
        assert projection_residual(bank, 0.5) <= 1e-10

    def test_matches_dense_projection_oracle(self):
        bank = compute_filterbank(64, 8, PRIMARY)
        mu = mu_vector(0.5, 64, PRIMARY)
        # Dense oracle: least-squares projection onto the filter span.
        coef, *_ = np.linalg.lstsq(bank.phi.T, mu, rcond=None)
        resid = mu - bank.phi.T @ coef
        assert projection_residual(bank, 0.5) == pytest.approx(float(resid @ resid), abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 0.9999, 1.0])
    def test_tail_sum_bound_primary(self, alpha):
        full = compute_filterbank(64, 64, PRIMARY)
        bank = full.head(8)
        tail = float(np.sum(full.sigma[8:]))
        assert projection_residual(bank, alpha) <= 12.0 * tail

    @pytest.mark.parametrize("alpha", [-0.9999, -0.5, 0.0, 0.7, 0.9999])
    def test_tail_sum_bound_alternative(self, alpha):
        full = compute_filterbank(64, 64, ALT)
        bank = full.head(8)
        tail = float(np.sum(full.sigma[8:]))
        assert projection_residual(bank, alpha) <= 6.0 * tail


class TestQuadratureIdentity:
    """The Hankel entries are second moments of the impulse directions."""

    def test_primary(self):
        for i in range(1, 9):
            for j in range(i, 9):
                val, err = quad(
                    lambda a: (a - 1) ** 2 * a ** (i + j - 2), 0.0, 1.0, epsabs=1e-10
                )
                assert err < 1e-10
                assert val == pytest.approx(hankel_entry(i, j, PRIMARY), abs=1e-8)

    def test_alternative(self):
        for i in range(1, 9):
            for j in range(i, 9):
                val, err = quad(
                    lambda a: (a**2 - 1) ** 2 * a ** (i + j - 2), -1.0, 1.0, epsabs=1e-10
                )
                assert err < 1e-10
                assert val == pytest.approx(hankel_entry(i, j, ALT), abs=1e-8)


def test_filter_norm_bound():
    # (mu(alpha) . v)^2 <= 12 v' Z v for unit v, alpha in [0, 1].
    rng = np.random.default_rng(21)
    L = 64
    Z = hankel_matrix(L, PRIMARY)
    alphas = rng.uniform(0.0, 1.0, size=1000)
    mus = np.array([mu_vector(a, L, PRIMARY) for a in alphas])
    for _ in range(20):
        v = rng.standard_normal(L)
        v /= np.linalg.norm(v)
        lhs = (mus @ v) ** 2
        assert np.all(lhs <= 12.0 * (v @ Z @ v) + 1e-12)


class TestCache:
    def test_round_trip(self, tmp_path, bank64):
        save_filterbank(bank64, tmp_path / "bank")
        loaded = load_filterbank(tmp_path / "bank")
        assert loaded.L == bank64.L and loaded.K == bank64.K
        assert loaded.variant is bank64.variant
        np.testing.assert_array_equal(loaded.phi, bank64.phi)
        np.testing.assert_array_equal(loaded.sigma, bank64.sigma)

    def test_checksum_mismatch(self, tmp_path, bank64):
        d = save_filterbank(bank64, tmp_path / "bank")
        payload = bytearray((d / "payload.f64le").read_bytes())
        payload[0] ^= 0xFF
        (d / "payload.f64le").write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="checksum"):
            load_filterbank(d)

    def test_version_mismatch(self, tmp_path, bank64):
        import json

        d = save_filterbank(bank64, tmp_path / "bank")
        meta = json.loads((d / "manifest.json").read_text())
        meta["format_version"] = 99
        (d / "manifest.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            load_filterbank(d)

    def test_rejects_other_container_kind(self, tmp_path):
        from spectral_ssm.container import save_arrays

        d = save_arrays(tmp_path / "rollout", {"kind": "lds_rollout"}, {"phi": np.zeros((1, 4))})
        with pytest.raises(ValueError, match="not a filter bank"):
            load_filterbank(d)
