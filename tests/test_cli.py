import json

import numpy as np
import pytest

from spectral_ssm.cli import main


def run_cli(*args):
    return main(list(args))


class TestGenFilters:
    def test_writes_bank_into_out(self, tmp_path):
        code = run_cli("gen-filters", "--L", "32", "--K", "4", "--variant", "primary",
                       "--out", str(tmp_path))
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "payload.f64le",
                                                              "run.json"]
        meta = json.loads((tmp_path / "manifest.json").read_text())
        assert meta["kind"] == "filterbank" and meta["L"] == 32 and meta["K"] == 4
        assert json.loads((tmp_path / "run.json").read_text())["exit_code"] == 0

    @pytest.mark.parametrize("variant", ["primary", "alternative"])
    def test_loaded_bank_is_bitwise_the_computed_one(self, tmp_path, variant):
        from spectral_ssm import HankelVariant, compute_filterbank, load_filterbank

        assert run_cli("gen-filters", "--L", "16", "--K", "3", "--variant", variant,
                       "--out", str(tmp_path)) == 0
        bank = load_filterbank(tmp_path)
        expect = compute_filterbank(16, 3, HankelVariant(variant))
        assert (bank.L, bank.K, bank.variant) == (expect.L, expect.K, expect.variant)
        assert np.array_equal(bank.sigma, expect.sigma) and np.array_equal(bank.phi, expect.phi)

    def test_default_out_is_runs_gen_filters(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen-filters", "--L", "16", "--K", "2") == 0
        out = tmp_path / "runs" / "gen-filters"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "payload.f64le",
                                                         "run.json"]


class TestExitCodes:
    def test_usage_error_is_64(self, tmp_path):
        assert run_cli("gen-filters", "--config", str(tmp_path / "missing.json")) == 64

    def test_unknown_option_is_64(self):
        assert run_cli("gen-filters", "--no-such-flag") == 64

    def test_bad_config_json_is_64(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert run_cli("gen-filters", "--config", str(p)) == 64

    def test_runtime_error_is_1(self, tmp_path):
        # K > L is a domain error inside the library, not a usage error.
        assert run_cli("gen-filters", "--L", "4", "--K", "8", "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("args, code", [
        (("gen-filters", "--L", "4", "--K", "8"), 1),
        (("fit-stu", "--length", "16", "--K", "20"), 1),
        (("verify-ar", "--systems", "2", "--length", "20", "--rtol", "1e-300"), 2),
    ], ids=["gen-filters-error", "fit-stu-error", "verify-ar-check-failed"])
    def test_failed_run_writes_run_json(self, tmp_path, args, code):
        assert run_cli(*args, "--out", str(tmp_path)) == code
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["command"] == args[0] and run["exit_code"] == code

    def test_unknown_fixture_is_64(self, tmp_path):
        assert run_cli("simulate-lds", "--fixture", "nope", "--out", str(tmp_path)) == 64

    @pytest.mark.parametrize("command", ["verify-theorem", "sweep-k"])
    @pytest.mark.parametrize("spec", ["5..2", "abc", "", "2,x"])
    def test_bad_k_list_is_64(self, tmp_path, command, spec):
        assert run_cli(command, "--K", spec, "--out", str(tmp_path)) == 64


@pytest.mark.parametrize("doc, flags, code, bank", [
    ({"L": 16, "K": 3}, ["--K", "6"], 0, ("primary", 16, 6)),
    ({"L": 16, "K": 3, "variant": "alternative"}, [], 0, ("alternative", 16, 3)),
    ({"L": 16, "K": 2, "lenght": 32}, [], 64, None),
    ({"L": 16, "K": 2, "variant": "nope"}, [], 64, None),
    ({"L": 16, "K": "two"}, [], 64, None),
    ({"L": 16, "K": 2, "threads": 1, "deterministic": True}, [], 64, None),
], ids=["flag-beats-file", "file-beats-default", "unknown-key", "bad-choice", "bad-type",
        "removed-thread-keys"])
def test_config_file_contract(tmp_path, doc, flags, code, bank):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("gen-filters", "--config", str(cfg), *flags, "--out", str(out)) == code
    if bank is None:
        assert not out.exists()
    else:
        meta = json.loads((out / "manifest.json").read_text())
        assert (meta["variant"], meta["L"], meta["K"]) == bank


@pytest.mark.parametrize("args", [
    ("verify-theorem", "--systems", "2", "--L", "32", "--K", "2,4", "--d-max", "2"),
    ("sweep-k", "--K", "2..4", "--length", "32", "--sequences", "2", "--seed", "5"),
], ids=["verify-theorem", "sweep-k"])
def test_config_echo_round_trips(tmp_path, args):
    """A run's run.json config, fed back as --config, reproduces its artefacts."""
    first, second = tmp_path / "first", tmp_path / "second"
    code = run_cli(*args, "--out", str(first))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(json.loads((first / "run.json").read_text())["config"]))
    assert run_cli(args[0], "--config", str(cfg), "--out", str(second)) == code == 0
    names = sorted(p.name for p in first.iterdir() if p.name != "run.json")
    assert names and names == sorted(p.name for p in second.iterdir() if p.name != "run.json")
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("K", [[], [2, "4"], [2, 4.5], [True], "5..2", "abc", "", "2,x"])
def test_bad_k_in_config_is_64(tmp_path, K):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": K, "length": 32, "sequences": 2}))
    assert run_cli("sweep-k", "--config", str(cfg), "--out", str(tmp_path / "out")) == 64


class TestVerifyTheorem:
    def test_small_battery_passes(self, tmp_path):
        code = run_cli("verify-theorem", "--systems", "3", "--L", "64", "--K", "8",
                       "--d-max", "4", "--out", str(tmp_path), "--seed", "1")
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations"] == 0
        assert report["checks"] == 3
        rows = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert rows[0] == "system,K,max_err,bound"
        assert len(rows) == 4

    def test_alternative_small_battery_passes(self, tmp_path):
        code = run_cli("verify-theorem", "--systems", "3", "--L", "64", "--K", "8",
                       "--d-max", "4", "--variant", "alternative", "--out", str(tmp_path),
                       "--seed", "1")
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["variant"] == "alternative"
        assert report["violations"] == 0 and report["checks"] == 3


class TestVerifyAr:
    def test_exactness_battery(self, tmp_path):
        code = run_cli("verify-ar", "--systems", "5", "--d-max", "4", "--length", "100",
                       "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["failures"] == 0
        assert report["max_rel_err"] <= 1e-8


class TestSweepK:
    def test_csv_contract_and_determinism(self, tmp_path):
        args = ("sweep-k", "--fixture", "marginal", "--K", "2..6", "--length", "64",
                "--sequences", "2", "--seed", "3")
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        csv_a = (tmp_path / "a" / "sweep.csv").read_bytes()
        csv_b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert csv_a == csv_b
        lines = csv_a.decode().strip().splitlines()
        assert lines[0] == "K,final_error"
        assert len(lines) == 6
        ks = [int(l.split(",")[0]) for l in lines[1:]]
        assert ks == [2, 3, 4, 5, 6]
        # full-precision scientific notation
        assert "e" in lines[1].split(",")[1]

    def test_comma_list(self, tmp_path):
        assert run_cli("sweep-k", "--K", "2,4", "--length", "32", "--sequences", "2",
                       "--out", str(tmp_path)) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3


class TestFitCommands:
    def test_fit_stu_artifacts(self, tmp_path):
        code = run_cli("fit-stu", "--length", "32", "--K", "4", "--sequences", "2",
                       "--steps", "5", "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["diverged"]
        assert "seed" not in report and report["config"]["seed"] == 0
        loss_lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
        assert loss_lines[0] == "step,loss"
        assert len(loss_lines) == 6
        assert (tmp_path / "params" / "manifest.json").exists()
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["command"] == "fit-stu"
        assert "wall_time_s" in run
        assert {"scipy", "click", "blas"} <= set(run["versions"])
        assert all(isinstance(v, str) and v for v in run["versions"].values())
        assert set(run["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}

    def test_final_loss_is_the_dataset_mse_of_the_saved_params(self, tmp_path):
        from spectral_ssm import compute_filterbank, container, load_stu_params, lds
        from spectral_ssm.trainer import LruParams, lru_forward, stu_mse

        system = lds.marginal_fixture()
        u = lds.random_inputs(2, 32, system.d_in, 1)
        y = lds.simulate_lds(system, u)
        assert run_cli("fit-stu", "--length", "32", "--K", "4", "--sequences", "2",
                       "--steps", "5", "--out", str(tmp_path / "stu")) == 0
        report = json.loads((tmp_path / "stu" / "report.json").read_text())
        params = load_stu_params(tmp_path / "stu" / "params")
        assert report["final_loss"] == stu_mse(params, compute_filterbank(32, 4), u, y)
        assert run_cli("fit-lru", "--length", "32", "--sequences", "2", "--steps", "5",
                       "--d-hidden", "4", "--out", str(tmp_path / "lru")) == 0
        report = json.loads((tmp_path / "lru" / "report.json").read_text())
        _, arrays = container.load_arrays(tmp_path / "lru" / "params")
        diff = lru_forward(LruParams(**arrays), u) - y
        assert report["final_loss"] == float(np.mean(diff * diff))

    def test_fit_stu_params_load(self, tmp_path):
        from spectral_ssm import compute_filterbank, fit_stu, load_stu_params, lds
        from spectral_ssm.trainer import TrainConfig

        assert run_cli("fit-stu", "--length", "32", "--K", "4", "--k-y", "1", "--sequences", "2",
                       "--steps", "5", "--seed", "3", "--out", str(tmp_path)) == 0
        params = load_stu_params(tmp_path / "params")
        system = lds.marginal_fixture()
        u = lds.random_inputs(2, 32, system.d_in, 4)
        report = fit_stu((u, lds.simulate_lds(system, u)), compute_filterbank(32, 4), 4, 1,
                         TrainConfig(learning_rate=5e-3, steps=5, batch_size=1, seed=3))
        expect = dict(report.final_params.named_arrays())
        assert (params.K, params.k_y) == (4, 1)
        for name, arr in params.named_arrays():
            assert np.array_equal(arr, expect[name]), name

    def test_fit_stu_k_zero_fits_the_taps_and_negative_k_fails(self, tmp_path, capsys):
        from spectral_ssm import load_stu_params

        assert run_cli("fit-stu", "--length", "32", "--K", "0", "--sequences", "2",
                       "--steps", "5", "--out", str(tmp_path / "zero")) == 0
        params = load_stu_params(tmp_path / "zero" / "params")
        assert params.K == 0 and params.M_phi_plus.shape == (0, params.d_out, params.d_in)
        capsys.readouterr()
        assert run_cli("fit-stu", "--length", "32", "--K", "-1", "--sequences", "2",
                       "--steps", "5", "--out", str(tmp_path / "negative")) == 1
        assert "K must be non-negative, got -1" in capsys.readouterr().err

    def test_fit_lru_smoke(self, tmp_path):
        code = run_cli("fit-lru", "--length", "32", "--sequences", "2", "--steps", "5",
                       "--d-hidden", "4", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "report.json").exists()

    def test_diverged_fit_lru_writes_valid_json(self, tmp_path):
        assert run_cli("fit-lru", "--no-stable-exp", "--no-gamma-norm", "--ring-min", "0",
                       "--ring-max", "1", "--lr", "10", "--steps", "200", "--sequences", "4",
                       "--length", "64", "--out", str(tmp_path)) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert report["diverged"] is True and report["final_loss"] is None

    def test_byte_identical_reruns(self, tmp_path):
        args = ("fit-stu", "--length", "32", "--K", "4", "--sequences", "2",
                "--steps", "5", "--seed", "11")
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        for name in ("report.json", "loss.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        pa = (tmp_path / "a" / "params" / "payload.f64le").read_bytes()
        pb = (tmp_path / "b" / "params" / "payload.f64le").read_bytes()
        assert pa == pb


class TestSimulate:
    def test_writes_rollout(self, tmp_path):
        code = run_cli("simulate-lds", "--length", "16", "--batch", "2", "--out", str(tmp_path))
        assert code == 0
        from spectral_ssm.container import load_arrays

        manifest, arrays = load_arrays(tmp_path)
        assert arrays["outputs"].shape == (2, 16, 3)

    def test_fixture_path(self, tmp_path):
        from spectral_ssm import random_marginal_system, save_lds_json

        save_lds_json(random_marginal_system(2, 1, 1, 0.5, seed=0), tmp_path / "sys.json")
        code = run_cli("simulate-lds", "--fixture", str(tmp_path / "sys.json"),
                       "--length", "8", "--out", str(tmp_path / "out"))
        assert code == 0


class TestTrainStack:
    def test_smoke(self, tmp_path):
        code = run_cli("train-stack", "--task", "delayed_recall", "--length", "32",
                       "--steps", "10", "--batch-size", "8", "--n-train", "32",
                       "--n-eval", "16", "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "eval_accuracy" in report["metrics"]

    def test_final_loss_is_the_train_set_cross_entropy_of_the_checkpoint(self, tmp_path):
        from spectral_ssm import compute_filterbank, load_stack, make_task_dataset, stack_forward
        from spectral_ssm.stack import softmax_cross_entropy

        assert run_cli("train-stack", "--task", "noisy_lds_class", "--length", "32",
                       "--steps", "5", "--batch-size", "8", "--n-train", "32", "--n-eval", "16",
                       "--seed", "2", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        model = load_stack(tmp_path / "checkpoint")
        u, labels, _ = make_task_dataset("noisy_lds_class", 48, 32, seed=3)
        logits = stack_forward(model, compute_filterbank(32, model.config.K), u[:32])
        assert report["final_loss"] == softmax_cross_entropy(logits, labels[:32])[0]
        assert report["metrics"]["train_accuracy"] == np.mean(logits.argmax(axis=1) == labels[:32])

