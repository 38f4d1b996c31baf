import numpy as np
import pytest
from hypothesis import settings
from scipy.special import roots_legendre

from spectral_ssm import HankelVariant, compute_filterbank, naive_featurize
from spectral_ssm.stu import feature_streams, parity_cumsum

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


def exact_quadrature_bank(L, variant):
    """(sigma, phi) of every filter from an exact square root of Z.

    Z = int mu(alpha) mu(alpha)^T dalpha over [0, 1] (primary) or [-1, 1]
    (alternative), and each entry's integrand is a polynomial of degree 2L
    or 2L + 2, so Gauss-Legendre with L + 1 or L + 2 nodes integrates it
    exactly: Z = V V^T with V[i, q] = mu_i(alpha_q) sqrt(w_q).  The filters
    are the left singular vectors of V, sigma the squared singular values.
    """
    if variant is HankelVariant.PRIMARY:
        x, w = roots_legendre(L + 1)
        alpha, w = (x + 1) / 2, w / 2
        lead = alpha - 1
    else:
        alpha, w = roots_legendre(L + 2)
        lead = alpha**2 - 1
    V = alpha ** np.arange(L)[:, None] * (lead * np.sqrt(w))
    U, s, _ = np.linalg.svd(V, full_matrices=False)
    return s**2, U.T


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


def reference_streams(bank, K, inputs):
    """The input convolved with each layer basis row, (batch, T, J, d_in):
    feature_streams of the direct-summation features (naive_featurize) of the
    first K filters, scaled by sigma^{1/4}."""
    feats = naive_featurize(bank, inputs)
    scale = bank.sigma[:K, None] ** 0.25
    minus = feats.U_minus[:, :, :K] * scale if bank.variant is HankelVariant.PRIMARY else None
    return feature_streams(inputs, feats.U_plus[:, :, :K] * scale, minus)


def reference_cumulative_features(bank, K, inputs):
    """The least-squares features by direct summation: the parity prefix
    sums over time of reference_streams.  Causal convolution commutes with
    the prefix sum, so they equal the streams of the parity-summed input."""
    return parity_cumsum(reference_streams(bank, K, inputs))


def rel_error(value, reference) -> float:
    """max |value - reference| over the largest |reference| entry."""
    reference = np.asarray(reference)
    return float(np.abs(value - reference).max() / max(float(np.abs(reference).max()), 1e-300))


# First-order loops over time: the references the vectorized scans in lds,
# theory and trainer are checked against.


def loop_scan(a, b, reverse=False):
    """x_t = a x_{t-1} + b_t (or a x_{t+1} + b_t with reverse), one step at a
    time; a is a diagonal vector or a dense matrix."""
    a = np.asarray(a)
    out = np.zeros(b.shape, dtype=np.result_type(a, b))
    x = np.zeros(b.shape[:1] + b.shape[2:], dtype=out.dtype)
    T = b.shape[1]
    for t in range(T - 1, -1, -1) if reverse else range(T):
        x = (x @ a.T if a.ndim == 2 else a * x) + b[:, t]
        out[:, t] = x
    return out


def loop_recurse_outputs(params, g):
    """y_t = g_t + sum_{i=1..k_y} M_y[i-1] y_{t-i}, step by step."""
    T = g.shape[1]
    y = np.zeros_like(g)
    for t in range(T):
        acc = g[:, t]
        for i in range(1, min(params.k_y, t) + 1):
            acc = acc + y[:, t - i] @ params.M_y[i - 1].T
        y[:, t] = acc
    return y


def loop_output_adjoint(params, dy):
    """The adjoint of loop_recurse_outputs, lam_t = dy_t + sum_{i=1..k_y}
    M_y[i-1]^T lam_{t+i}, by backpropagation through time."""
    T = dy.shape[1]
    lam = np.zeros_like(dy)
    for t in range(T - 1, -1, -1):
        acc = dy[:, t].copy()
        for i in range(1, min(params.k_y, T - 1 - t) + 1):
            acc += lam[:, t + i] @ params.M_y[i - 1]
        lam[:, t] = acc
    return lam


def loop_simulate_lds(params, inputs, x0=None):
    """The rollout x_t = A x_{t-1} + B u_t, y_t = C x_t + D u_t, step by step."""
    batch, T, _ = inputs.shape
    x = np.zeros((batch, params.d_hidden)) if x0 is None else np.broadcast_to(x0, (batch, params.d_hidden))
    out = np.empty((batch, T, params.d_out))
    Bu = inputs @ params.B.T
    Du = inputs @ params.D.T
    for t in range(T):
        x = params.apply_a(x) + Bu[:, t]
        out[:, t] = x @ params.C.T + Du[:, t]
    return out


def loop_ar_predict(ar, inputs):
    """y_t = sum_i alpha_i y_{t-i} + sum_j Gamma_j u_{t-j}, step by step."""
    B, T, _ = inputs.shape
    d = ar.order
    y = np.zeros((B, T, ar.Gamma.shape[1]))
    for t in range(T):
        acc = inputs[:, t] @ ar.Gamma[0].T
        for j in range(1, min(d, t) + 1):
            acc = acc + inputs[:, t - j] @ ar.Gamma[j].T
        for i in range(1, min(d, t) + 1):
            acc = acc + ar.alpha[i - 1] * y[:, t - i]
        y[:, t] = acc
    return y


def loop_lru_loss_and_grads(params, inputs, targets):
    """lru_loss_and_grads in real arithmetic: the recurrence in real and
    imaginary parts step by step, and backpropagation through time."""
    mag, theta = params.lam_polar()
    lam_re, lam_im = mag * np.cos(theta), mag * np.sin(theta)
    gamma = params.gamma()
    B, T, _ = inputs.shape
    d_h = params.nu_log.shape[0]
    s_re = inputs @ params.B_re.T
    s_im = inputs @ params.B_im.T
    x_re = np.zeros((B, T, d_h))
    x_im = np.zeros((B, T, d_h))
    cr = np.zeros((B, d_h))
    ci = np.zeros((B, d_h))
    for t in range(T):
        cr, ci = (
            lam_re * cr - lam_im * ci + gamma * s_re[:, t],
            lam_re * ci + lam_im * cr + gamma * s_im[:, t],
        )
        x_re[:, t] = cr
        x_im[:, t] = ci
    out = x_re @ params.C_re.T - x_im @ params.C_im.T + inputs @ params.D.T
    diff = out - targets
    N = diff.size
    loss = float(np.sum(diff * diff) / N)
    g = (2.0 / N) * diff
    grads = {
        "D": np.einsum("bto,bti->oi", g, inputs),
        "C_re": np.einsum("bto,bth->oh", g, x_re),
        "C_im": -np.einsum("bto,bth->oh", g, x_im),
    }
    R = np.zeros((B, T, d_h))
    Q = np.zeros((B, T, d_h))
    r = np.zeros((B, d_h))
    q = np.zeros((B, d_h))
    for t in range(T - 1, -1, -1):
        r, q = (
            g[:, t] @ params.C_re + lam_re * r + lam_im * q,
            -(g[:, t] @ params.C_im) - lam_im * r + lam_re * q,
        )
        R[:, t] = r
        Q[:, t] = q
    x_re_prev = np.concatenate([np.zeros((B, 1, d_h)), x_re[:, :-1]], axis=1)
    x_im_prev = np.concatenate([np.zeros((B, 1, d_h)), x_im[:, :-1]], axis=1)
    d_lam_re = np.einsum("bth,bth->h", R, x_re_prev) + np.einsum("bth,bth->h", Q, x_im_prev)
    d_lam_im = -np.einsum("bth,bth->h", R, x_im_prev) + np.einsum("bth,bth->h", Q, x_re_prev)
    grads["B_re"] = np.einsum("bth,bti->hi", R * gamma, inputs)
    grads["B_im"] = np.einsum("bth,bti->hi", Q * gamma, inputs)
    d_gamma = np.einsum("bth,bth->h", R, s_re) + np.einsum("bth,bth->h", Q, s_im)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    d_mag = d_lam_re * cos_t + d_lam_im * sin_t
    if params.gamma_norm:
        d_mag = d_mag - d_gamma * mag / np.maximum(gamma, 1e-30)
    d_theta = -d_lam_re * mag * sin_t + d_lam_im * mag * cos_t
    if params.stable_exp:
        grads["nu_log"] = d_mag * (-np.exp(params.nu_log) * mag)
        grads["theta_log"] = d_theta * theta
    else:
        grads["nu_log"] = -d_mag * mag
        grads["theta_log"] = d_theta
    return loss, grads


def ar_rounding_bound(ar, inputs, y):
    """Elementwise bound on the float64 rounding error of any evaluation of
    the autoregression that sums each step's terms in some order.

    Each step sums at most n = 2d + 1 + d_in products, so its local error is
    below gamma_n w_t, with w_t = |y_t| + sum_i |alpha_i| |y_{t-i}| +
    sum_j |Gamma_j| |u_{t-j}|; the recursion carries a local error to later
    steps through its impulse response h, so the error is below
    gamma_n (|h| * w)_t.  Two evaluations differ by at most twice this.
    """
    from scipy.signal import lfilter

    B, T, d_in = inputs.shape
    d = ar.order
    w = np.abs(y) + np.abs(inputs) @ np.abs(ar.Gamma[0]).T
    for lag in range(1, min(d, T - 1) + 1):
        w[:, lag:] += abs(ar.alpha[lag - 1]) * np.abs(y[:, :-lag])
        w[:, lag:] += np.abs(inputs[:, :-lag]) @ np.abs(ar.Gamma[lag]).T
    impulse = np.zeros(T)
    impulse[0] = 1.0
    h = np.abs(lfilter([1.0], np.concatenate(([1.0], -ar.alpha)), impulse))
    n = 2 * d + 1 + d_in
    gamma_n = n * np.finfo(np.float64).eps / (1 - n * np.finfo(np.float64).eps)
    return gamma_n * np.apply_along_axis(lambda c: np.convolve(h, c)[:T], 1, w)
