import numpy as np
import pytest
from hypothesis import settings

from spectral_ssm import HankelVariant, compute_filterbank, naive_featurize

VARIANTS = [HankelVariant.PRIMARY, HankelVariant.ALTERNATIVE]

# Wall-clock deadlines flake on hosts whose speed varies from run to run; a
# failing example prints the blob that reproduces it.
settings.register_profile("tier1", deadline=None, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def bank64():
    return compute_filterbank(64, 16)


@pytest.fixture(scope="session")
def bank256():
    return compute_filterbank(256, 24)


@pytest.fixture(scope="session")
def alt_bank64():
    return compute_filterbank(64, 16, HankelVariant.ALTERNATIVE)


@pytest.fixture(scope="session")
def alt_bank256():
    return compute_filterbank(256, 24, HankelVariant.ALTERNATIVE)


def fd_gradcheck(loss_fn, named_arrays, grads, h=1e-6):
    """Worst mixed relative/absolute error of analytic grads vs central
    differences: |fd - g| / max(1, |fd|, |g|).  The unit floor keeps the
    comparison meaningful where true gradients sit below the finite-difference
    roundoff (~eps * loss / h); real gradient bugs surface as errors on the
    order of the gradient itself."""
    worst = 0.0
    for name, arr in named_arrays:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = arr[ix]
            arr[ix] = old + h
            lp = loss_fn()
            arr[ix] = old - h
            lm = loss_fn()
            arr[ix] = old
            fd = (lp - lm) / (2 * h)
            g = grads[name][ix]
            worst = max(worst, abs(fd - g) / max(1.0, abs(fd), abs(g)))
    return worst


def reference_stu_outputs(params, bank, inputs):
    """The STU layer written out step by step from direct-summation features
    (naive_featurize): taps plus the (t-2)-shifted sigma^{1/4}-scaled
    spectral term, then y_t = y_{t-2} + g_t, or the learned recursion over
    the last k_y outputs when M_y is set."""
    feats = naive_featurize(bank, inputs)
    scale = bank.sigma[: params.K, None] ** 0.25
    B, T, _ = inputs.shape
    y = np.zeros((B, T, params.d_out))
    for t in range(T):
        g = sum(inputs[:, t - i] @ params.M_u[i].T for i in range(min(3, t + 1)))
        if t >= 2:
            g = g + np.einsum("koc,bkc->bo", params.M_phi_plus,
                              scale * feats.U_plus[:, t - 2, : params.K])
            if params.variant is HankelVariant.PRIMARY:
                g = g + np.einsum("koc,bkc->bo", params.M_phi_minus,
                                  scale * feats.U_minus[:, t - 2, : params.K])
        if params.k_y == 0 and t >= 2:
            g = g + y[:, t - 2]
        for i in range(1, min(params.k_y, t) + 1):
            g = g + y[:, t - i] @ params.M_y[i - 1].T
        y[:, t] = g
    return y
