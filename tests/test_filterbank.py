import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh

import spectral_ssm
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

from conftest import VARIANTS, exact_quadrature_bank

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

    @given(
        variant=st.sampled_from(VARIANTS),
        shape=st.integers(1, 512).flatmap(lambda L: st.tuples(st.just(L), st.integers(1, L))),
    )
    @example(variant=PRIMARY, shape=(1, 1))
    @example(variant=ALT, shape=(2, 2))
    @example(variant=PRIMARY, shape=(3, 3))
    @example(variant=PRIMARY, shape=(256, 256))
    @example(variant=ALT, shape=(256, 255))
    @example(variant=ALT, shape=(469, 60))  # 16 nodes a panel miss filter 53 here by 2e-6
    @settings(max_examples=25)
    def test_matches_exact_quadrature_factor(self, variant, shape):
        # The graded rule against the exact Gauss-Legendre factor, past the
        # numerical rank of an eigensolve down to sigma_k = 1e-20 sigma_1.
        L, K = shape
        bank = compute_filterbank(L, K, variant)
        sigma, phi = exact_quadrature_bank(L, variant)
        k = min(K, int(np.sum(sigma >= 1e-20 * sigma[0])))
        sign = np.sign(np.sum(phi[:k] * bank.phi[:k], axis=1))
        np.testing.assert_allclose(bank.sigma[:k], sigma[:k], rtol=1e-6, atol=0)
        np.testing.assert_allclose(bank.phi[:k], sign[:, None] * phi[:k], rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "L, K", [(2, 2), (25, 10), (64, 64), (77, 53), (210, 185), (256, 24), (413, 163), (460, 358)]
    )
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_dense_eigh_within_the_numerical_rank(self, variant, L, K):
        # Within the numerical rank (sigma_k > L eps sigma_1) a dense
        # eigensolve is good to about eps sigma_1 per eigenvalue and
        # eps sigma_1 / gap per filter, the gap being to the rest of the
        # spectrum.  Over 64 random shapes the worst constants were 5.8
        # (filters) and 9.2 (eigenvalues).
        bank = compute_filterbank(L, K, variant)
        sigma, vecs = eigh(hankel_matrix(L, variant))
        sigma, vecs = sigma[::-1], vecs[:, ::-1].T
        floor = np.finfo(np.float64).eps * sigma[0]
        r = min(K, int(np.sum(sigma > L * floor)))
        gaps = np.array([np.abs(np.delete(sigma, k) - sigma[k]).min() for k in range(r)])
        sign = np.sign(np.sum(vecs[:r] * bank.phi[:r], axis=1))
        err = np.abs(bank.phi[:r] - sign[:, None] * vecs[:r]).max(axis=1)
        assert np.all(np.abs(bank.sigma[:r] - sigma[:r]) <= 16 * floor)
        assert np.all(err * gaps <= 16 * floor), np.max(err * gaps / floor)

    def test_blas_thread_count_leaves_banks_bitwise_equal(self, tmp_path):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from spectral_ssm import compute_filterbank\n"
            "shapes = [(256, 24, 'primary'), (256, 40, 'alternative'), (1024, 24, 'primary'),"
            " (64, 64, 'primary')]\n"
            "banks = [compute_filterbank(*shape) for shape in shapes]\n"
            "np.savez(sys.argv[1], *[a for b in banks for a in (b.sigma, b.phi)])\n"
        )
        path = os.pathsep.join([str(Path(spectral_ssm.__file__).parents[1]),
                                os.environ.get("PYTHONPATH", "")])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / f"banks-{threads}.npz"
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
            runs.append(np.load(out))
        for name in runs[0].files:
            np.testing.assert_array_equal(runs[0][name], runs[1][name])

    def test_long_bank_past_the_numerical_rank(self):
        # K = 32 exceeds the numerical rank at L = 8192; validate() runs inside.
        full = compute_filterbank(8192, 32)
        head = compute_filterbank(8192, 16)
        np.testing.assert_allclose(full.sigma[:16], head.sigma, rtol=0, atol=2e-10)

    def test_long_length_bank(self):
        # No L x L matrix at L = 4100; validate() checks every bank invariant.
        bank = compute_filterbank(4100, 4, PRIMARY)
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
