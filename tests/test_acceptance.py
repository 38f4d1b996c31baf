"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them live)."""

import time

import numpy as np
import pytest

import spectral_ssm as ss
from spectral_ssm import stack as stack_mod
from spectral_ssm import trainer as trainer_mod
from spectral_ssm.filterbank import compute_filterbank
from spectral_ssm.lds import bounded_inputs, random_inputs, random_symmetric_system
from spectral_ssm.stu import featurize
from spectral_ssm.trainer import TrainingDiverged, lru_loss_and_grads, stu_loss_and_grads

from conftest import fd_gradcheck


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def bank256():
    return ss.compute_filterbank(256, 24)


def test_criterion_1_constructive_bound(bank256):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    worst_margin = np.inf
    for i in range(50):
        d_h = int(rng.integers(1, 17))
        radius = 1.0 if i % 5 == 0 else float(rng.uniform(0.3, 1.0))
        system = random_symmetric_system(d_h, 3, 2, radius=radius, seed=7000 + i,
                                         dense=bool(i % 2))
        u = bounded_inputs(1, 256, 3, seed=8000 + i)
        for K in (8, 16, 24):
            params = ss.stu_from_lds(system, bank256, K)
            rep = ss.approximation_report(system, params, bank256, u)
            violations += int(not rep.satisfied)
            if rep.max_err > 0:
                worst_margin = min(worst_margin, rep.bound / rep.max_err)
    elapsed = time.perf_counter() - t0
    report(
        1,
        violations == 0 and elapsed <= 120.0,
        f"50 systems x K in (8,16,24): {violations} violations, "
        f"worst bound/error margin {worst_margin:.3e}, {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_2_k_sweep_decay(bank256):
    t0 = time.perf_counter()
    fixture = ss.marginal_fixture()
    config = trainer_mod.TrainConfig(seed=0)
    ks = list(range(1, 31))
    bank30 = ss.compute_filterbank(256, 30)
    # Noise-free run for the decay clauses (ratio and log-slope).
    clean = dict(ss.k_sweep(fixture, ks, bank30, config))
    ratio = clean[15] / clean[5]
    window = list(range(4, 16))
    slope = np.polyfit(window, np.log([clean[k] for k in window]), 1)[0]
    # Observation noise gives the oracle an explicit error floor; the curve then
    # plateaus once the representation error drops below it, as in the original
    # SGD experiment where optimization noise played that role.
    noisy = dict(ss.k_sweep(fixture, ks, bank30, config, noise_std=1e-4))
    noisy_ratio = noisy[15] / noisy[5]
    noisy_slope = np.polyfit(window, np.log([noisy[k] for k in window]), 1)[0]
    plateau_changes = [abs(noisy[k + 1] - noisy[k]) / noisy[k] for k in range(15, 30)]
    elapsed = time.perf_counter() - t0
    ok = (
        ratio <= 0.1
        and slope < 0
        and noisy_ratio <= 0.1
        and noisy_slope < 0
        and max(plateau_changes) < 0.1
        and elapsed <= 60.0
    )
    report(
        2,
        ok,
        f"noise-free err(15)/err(5)={ratio:.3e}, ln-slope={slope:.3f}; with 1e-4 floor: "
        f"ratio={noisy_ratio:.3e}, slope={noisy_slope:.3f}, max plateau step change "
        f"{max(plateau_changes):.3%} (<10% for K>=15), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_3_autoregression_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(1, 7))
        system = random_symmetric_system(d, 2, 2, radius=0.99, seed=9000 + i,
                                         dense=bool(i % 2))
        u = random_inputs(2, 200, 2, seed=9500 + i)
        y = ss.simulate_lds(system, u)
        y_ar = ss.ar_coefficients(system).predict(u)
        worst = max(worst, float(np.abs(y - y_ar).max() / np.abs(y).max()))
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst <= 1e-8 and elapsed <= 10.0,
        f"20 systems, worst relative error {worst:.3e} (tol 1e-8), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_4_spectral_decay():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for L in (64, 256, 1024):
        K = min(64, L)
        for variant in (ss.HankelVariant.PRIMARY, ss.HankelVariant.ALTERNATIVE):
            bank = ss.compute_filterbank(L, K, variant)
            bound = ss.eigenvalue_decay_bound(np.arange(1, K + 1), L)
            assert np.all(bank.sigma <= bound), f"decay violated at L={L} {variant}"
            worst_ratio = max(worst_ratio, float((bank.sigma / bound).max()))
    elapsed = time.perf_counter() - t0
    report(
        4,
        worst_ratio <= 1.0 and elapsed <= 60.0,
        f"sigma_j <= 235200 exp(-(pi^2/4) j/ln L) at L in (64,256,1024), both variants; "
        f"worst sigma/bound {worst_ratio:.3e}, {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for L in (1, 2, 3, 16, 128, 512):
        for K in (1, 8, 24):
            if K > L:
                continue
            for variant in (ss.HankelVariant.PRIMARY, ss.HankelVariant.ALTERNATIVE):
                bank = ss.compute_filterbank(L, K, variant)
                u = random_inputs(2, L, 3, seed=L * 100 + K)
                fast = ss.featurize(bank, u)
                slow = ss.naive_featurize(bank, u)
                worst = max(
                    worst,
                    float(np.abs(fast.U_plus - slow.U_plus).max()),
                    float(np.abs(fast.U_minus - slow.U_minus).max()),
                )
    from scipy.integrate import quad

    quad_worst = 0.0
    for i in range(1, 9):
        for j in range(i, 9):
            val, _ = quad(lambda a: (a - 1) ** 2 * a ** (i + j - 2), 0, 1, epsabs=1e-10)
            quad_worst = max(quad_worst, abs(val - ss.hankel_entry(i, j, ss.HankelVariant.PRIMARY)))
            val, _ = quad(lambda a: (a**2 - 1) ** 2 * a ** (i + j - 2), -1, 1, epsabs=1e-10)
            quad_worst = max(quad_worst, abs(val - ss.hankel_entry(i, j, ss.HankelVariant.ALTERNATIVE)))
    elapsed = time.perf_counter() - t0
    report(
        5,
        worst <= 1e-10 and quad_worst <= 1e-8,
        f"FFT vs naive max abs diff {worst:.3e} (tol 1e-10); quadrature identity worst "
        f"{quad_worst:.3e} (tol 1e-8), {elapsed:.1f}s",
    )


def test_criterion_6_training_direction():
    t0 = time.perf_counter()
    fixture = ss.marginal_fixture()
    inputs = random_inputs(32, 256, 3, seed=11)
    targets = ss.simulate_lds(fixture, inputs)
    init_mse = float(np.mean(targets**2))
    bank = ss.compute_filterbank(256, 25)

    stu_cfg = trainer_mod.TrainConfig(learning_rate=5e-3, steps=2000, batch_size=1, seed=0)
    stu_rep = ss.fit_stu((inputs, targets), bank, 25, 0, stu_cfg)
    stu_final = float(stu_rep.loss_curve[-100:].mean())
    stu_ok = stu_final <= 0.01 * init_mse

    lru_cfg = trainer_mod.TrainConfig(
        learning_rate=5e-2, steps=12000, batch_size=2, seed=0,
        lr_schedule="warmup_cosine", warmup_frac=0.05,
    )
    lru_rep = ss.fit_lru((inputs, targets), 32, lru_cfg, ss.LruOptions(max_init_phase=3.14))
    curve = lru_rep.loss_curve
    trail = np.convolve(curve, np.ones(100) / 100, mode="valid")
    lru_final = float(trail[-1])
    lru_learned = lru_final <= init_mse / 10.0
    reached = np.nonzero(trail <= stu_final)[0]
    steps_to_stu = int(reached[0]) if reached.size else None
    slower = steps_to_stu is None or steps_to_stu > stu_cfg.steps

    # Ablation: interventions off at a high learning rate (reported, and compared
    # against the STU's final loss).
    off_cfg = trainer_mod.TrainConfig(learning_rate=5e-1, steps=3000, batch_size=2, seed=0)
    off_options = ss.LruOptions(stable_exp=False, gamma_norm=False, ring_init=(0.0, 1.0))
    try:
        off_rep = ss.fit_lru((inputs, targets), 32, off_cfg, off_options)
        off_final = float(off_rep.loss_curve[-100:].mean())
        off_status = f"plateaued at {off_final:.3e}"
        off_failed = off_final > stu_final
    except TrainingDiverged as exc:
        off_status = f"diverged at step {exc.step}"
        off_failed = True
    elapsed = time.perf_counter() - t0
    ok = stu_ok and lru_learned and slower and off_failed and elapsed <= 600.0
    report(
        6,
        ok,
        f"STU final {stu_final:.3e} (<=1% of init {init_mse:.2f}: {stu_ok}); LRU final "
        f"{lru_final:.3e} (>=10x down: {lru_learned}), steps to reach STU final: "
        f"{steps_to_stu if steps_to_stu is not None else 'never'} vs STU budget {stu_cfg.steps} "
        f"(slower: {slower}); interventions-off {off_status} (failed to reach STU loss: "
        f"{off_failed}); {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_7_gradient_fidelity():
    t0 = time.perf_counter()
    worst_all = 0.0
    bank16 = ss.compute_filterbank(16, 4)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        # trainer: convex layer and learned-autoregression layer
        for k_y in (0, 2):
            params = ss.StuParams.zeros(4, 2, 2, k_y=k_y)
            for _, arr in params.named_arrays():
                arr += 0.1 * rng.standard_normal(arr.shape)
            u = rng.standard_normal((2, 16, 2))
            y = rng.standard_normal((2, 16, 2))
            _, grads = stu_loss_and_grads(params, bank16, u, y)
            worst_all = max(worst_all, fd_gradcheck(
                lambda: stu_loss_and_grads(params, bank16, u, y)[0],
                list(params.named_arrays()), grads,
            ))
        # trainer: diagonal RNN baseline
        lru = trainer_mod.init_lru_params(3, 2, 2, ss.LruOptions(ring_init=(0.4, 0.8)),
                                          seed=seed)
        u = rng.standard_normal((2, 16, 2))
        y = rng.standard_normal((2, 16, 2))
        _, grads = lru_loss_and_grads(lru, u, y)
        worst_all = max(worst_all, fd_gradcheck(
            lambda: lru_loss_and_grads(lru, u, y)[0], list(lru.named_arrays()), grads,
        ))
        # stack: embedding -> STU/GLU x2 -> pooling -> readout
        cfg = ss.StackConfig(n_layers=2, d_model=4, K=4, d_in=2, n_classes=3, pooling="mean")
        model = stack_mod.init_stack(cfg, seed=seed)
        for name, arr in model.named_arrays():
            if "stu" in name:
                arr += 0.2 * rng.standard_normal(arr.shape)
        u = rng.standard_normal((2, 16, 2))
        labels = rng.integers(0, 3, size=2)
        _, grads = stack_mod.stack_gradients(model, bank16, u, labels)
        worst_all = max(worst_all, fd_gradcheck(
            lambda: stack_mod.stack_gradients(model, bank16, u, labels)[0],
            list(model.named_arrays()), grads,
        ))
    elapsed = time.perf_counter() - t0
    report(
        7,
        worst_all <= 1e-5,
        f"10 seeds, trainer + stack analytic vs central differences, worst error "
        f"{worst_all:.3e} (tol 1e-5), {elapsed:.0f}s",
    )


def featurize_timings(L_values, K: int, d_in: int, repeats: int = 5, seed: int = 0) -> dict:
    """Median featurize wall time per length and consecutive doubling ratios.

    The timing covers only the convolution, not the bank build.  Repeats are
    interleaved across lengths so transient system load hits every length
    alike and the ratios stay a paired comparison.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for L in L_values:
        bank = compute_filterbank(L, K)
        u = rng.standard_normal((1, L, d_in))
        featurize(bank, u)  # warm the FFT plan and allocator
        cases.append((bank, u, []))
    for _ in range(repeats):
        for bank, u, times in cases:
            t0 = time.perf_counter()
            featurize(bank, u)
            times.append(time.perf_counter() - t0)
    medians = [float(np.median(times)) for _, _, times in cases]
    ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
    return {
        "L": [int(L) for L in L_values],
        "K": K,
        "d_in": d_in,
        "repeats": repeats,
        "median_s": medians,
        "doubling_ratios": ratios,
    }


def test_criterion_8_complexity_contract():
    t0 = time.perf_counter()
    result = featurize_timings([2048, 4096], K=24, d_in=8, repeats=5, seed=0)
    ratio = result["doubling_ratios"][0]
    elapsed = time.perf_counter() - t0
    report(
        8,
        ratio <= 2.6,
        f"featurize median {result['median_s'][0]*1e3:.1f}ms @L=2048 vs "
        f"{result['median_s'][1]*1e3:.1f}ms @L=4096, ratio {ratio:.2f} (limit 2.6), {elapsed:.0f}s",
    )


def test_criterion_9_out_of_scope_substitutes():
    t0 = time.perf_counter()
    # Full-batch overfit: 8 examples driven to near-zero loss.
    bank32 = ss.compute_filterbank(32, 8)
    u8, l8, _ = ss.make_task_dataset("delayed_recall", 8, 32, seed=4, delay=16, block=8)
    cfg8 = ss.StackConfig(n_layers=1, d_model=8, K=8, d_in=1, n_classes=2, pooling="last")
    model8 = stack_mod.init_stack(cfg8, seed=0)
    tc8 = trainer_mod.TrainConfig(learning_rate=2e-2, steps=400, batch_size=8, seed=0,
                                  lr_schedule="warmup_cosine", warmup_frac=0.05)
    rep8 = stack_mod.train_on_dataset(model8, bank32, (u8, l8), tc8)
    overfit_ok = float(rep8.loss_curve[-1]) <= 0.01

    # Long-range recall at L=256 with the label half a sequence in the past.
    # 1800 steps gives seed-robust convergence (eval 1.0 across seeds 0-2).
    tc = trainer_mod.TrainConfig(learning_rate=1e-2, steps=1800, batch_size=64, seed=0,
                                 lr_schedule="warmup_cosine", warmup_frac=0.05)
    rep = stack_mod.train_stack("delayed_recall", tc, L=256, n_train=2048, n_eval=512,
                                delay=128, block=32)
    recall_acc = rep.metrics["eval_accuracy"]
    elapsed = time.perf_counter() - t0
    ok = overfit_ok and recall_acc >= 0.9
    report(
        9,
        ok,
        "full-scale long-range-benchmark accuracies are out of scope at desk scale; "
        f"substitutes: full-batch overfit loss {float(rep8.loss_curve[-1]):.2e} (<=0.01: "
        f"{overfit_ok}), delay-L/2 recall eval accuracy {recall_acc:.3f} (>=0.9), "
        f"{elapsed:.0f}s",
    )
