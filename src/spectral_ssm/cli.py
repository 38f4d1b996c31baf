"""Command-line driver: filter generation, experiment execution,
representation verification, and CSV/JSON export.

Each command's click options are the one source of its defaults, types and
validation.  A --config JSON object becomes the command's default map, so a
value resolves as flag > config file > built-in default, and a config value
is typed and checked exactly like the flag of the same name.

Exit codes: 0 success, 1 runtime error, 2 scientific check failed, 64 usage
error (bad flag, unknown config key, invalid value).  Every run that starts
writes run.json (config echo, seed, versions, BLAS thread variables, exit
code, wall time) into the output directory, whether it succeeds or fails
(RunCommand); a usage error writes nothing; timing lives only there so the
scientific artifacts are byte-identical across reruns of the same config and
seed.  BLAS thread pools are sized by the
environment (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, ...), which numpy reads
when it loads, before any command runs.
"""

from __future__ import annotations

import dataclasses
import importlib.metadata
import json
import os
import sys
import time
import traceback
from pathlib import Path

import click
import numpy as np
import scipy

from . import __version__, container, lds, stack, theory, trainer
from . import filterbank as fb
from .stu import save_stu_params


class CheckFailed(Exception):
    """A scientific acceptance check failed (exit code 2)."""


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make a JSON config file the command's defaults; flags still win."""
    if path is None:
        return
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise click.BadParameter(f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise click.BadParameter("must hold a JSON object")
    known = {p.name for p in ctx.command.params if p.expose_value}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise click.BadParameter(f"unknown key(s) {', '.join(map(repr, unknown))}")
    # null keeps the built-in default; passed on, it would reach a command as
    # None (for --seed, an unseeded generator).
    ctx.default_map = {k: v for k, v in doc.items() if v is not None}


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    # Full-precision scientific notation so downstream plots are oracle-grade.
    lines = [",".join(header)]
    for row in rows:
        cells = [f"{v:.16e}" if isinstance(v, float) else str(v) for v in row]
        lines.append(",".join(cells))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_library() -> str:
    """Name and version of the BLAS that numpy was built against and loads."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


class RunContext:
    """Collects run metadata and writes run.json on completion."""

    def __init__(self, command: str, out_dir: str, params: dict):
        self.command = command
        self.out = Path(out_dir)
        self.params = params
        self.t0 = time.perf_counter()
        self.started_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")

    def finish(self, exit_code: int = 0) -> None:
        doc = {
            "command": self.command,
            "config": self.params,
            "seed": self.params["seed"],
            "versions": {
                "spectral_ssm": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
                "scipy": scipy.__version__,
                "click": importlib.metadata.version("click"),
                "blas": _blas_library(),
            },
            # The thread count can move the last bits of BLAS results.
            "threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
            "exit_code": exit_code,
            "wall_time_s": time.perf_counter() - self.t0,
            "started_at": self.started_at,
        }
        _write_json(self.out / "run.json", doc)


def _fixture_system(name: str):
    if name == "marginal":
        return lds.marginal_fixture()
    path = Path(name)
    if path.exists():
        return lds.load_lds_json(path)
    raise click.UsageError(f"unknown fixture {name!r} (use 'marginal' or a JSON path)")


class IntList(click.ParamType):
    """A non-empty list of integers: a range "A..B" or a comma list on the
    command line, or a JSON list from a --config file, as run.json echoes it."""

    name = "int list"

    def convert(self, value, param, ctx):
        values = value
        if not isinstance(value, list):
            lo, dots, hi = str(value).partition("..")
            try:
                values = (list(range(int(lo), int(hi) + 1)) if dots
                          else [int(tok) for tok in lo.split(",") if tok.strip()])
            except ValueError:
                values = None
        if not (values and all(type(v) is int for v in values)):
            self.fail(f"{value!r} is not a non-empty range A..B or list of integers", param, ctx)
        return values


class RunCommand(click.Command):
    """A command with the common options whose run writes run.json however
    it ends: exit code 0 on success, 2 when a scientific check fails, 1 on
    any other error.  A usage error, from parsing or from the command (an
    unknown fixture), writes nothing.  The callback gets the RunContext as
    its first argument; its config echoes every option but --out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params += [
            click.Option(["--config"], type=click.Path(exists=True, dir_okay=False), is_eager=True,
                         expose_value=False, callback=_load_config,
                         help="JSON object of option values (keys are parameter names)."),
            click.Option(["--out"], type=str, default=None, help="Output directory."),
            click.Option(["--seed"], type=int, default=0, show_default=True, help="Random seed."),
        ]

    def invoke(self, ctx: click.Context):
        params = {k: v for k, v in ctx.params.items() if k != "out"}
        run = RunContext(ctx.info_name, ctx.params["out"] or f"runs/{ctx.info_name}", params)
        try:
            ctx.invoke(self.callback, run, **ctx.params)
        except click.UsageError:
            raise
        except Exception as exc:
            run.finish(2 if isinstance(exc, CheckFailed) else 1)
            raise
        run.finish(0)


@click.group()
def cli():
    """Spectral state space model toolkit."""


cli.command_class = RunCommand


@cli.command("gen-filters")
@click.option("--L", "L", type=int, default=256, show_default=True)
@click.option("--K", "K", type=int, default=24, show_default=True)
@click.option("--variant", type=click.Choice([v.value for v in fb.HankelVariant]), default="primary")
def gen_filters(run, L, K, variant, **_):
    """Compute a filter bank and write it to the output directory."""
    fb.save_filterbank(fb.compute_filterbank(L, K, fb.HankelVariant(variant)), run.out)
    click.echo(f"wrote {run.out}")


@cli.command("simulate-lds")
@click.option("--fixture", default="marginal", show_default=True)
@click.option("--length", type=int, default=256, show_default=True)
@click.option("--batch", type=int, default=4, show_default=True)
def simulate_lds_cmd(run, fixture, length, batch, seed, **_):
    """Roll out a system on random inputs and store the trajectories."""
    system = _fixture_system(fixture)
    u = lds.random_inputs(batch, length, system.d_in, seed)
    y = lds.simulate_lds(system, u)
    container.save_arrays(run.out, {"kind": "lds_rollout", "fixture": fixture},
                          {"inputs": u, "outputs": y})
    _write_json(run.out / "summary.json", {
        "fixture": fixture, "batch": batch, "length": length,
        "output_rms": float((y**2).mean() ** 0.5),
    })
    click.echo(f"wrote {run.out}")


@cli.command("verify-theorem")
@click.option("--systems", type=int, default=50, show_default=True)
@click.option("--L", "L", type=int, default=256, show_default=True)
@click.option("--K", "K", type=IntList(), default="8,16,24", show_default=True,
              help="Comma list of filter counts.")
@click.option("--d-max", type=int, default=16, show_default=True)
@click.option("--variant", type=click.Choice([v.value for v in fb.HankelVariant]), default="primary")
def verify_theorem(run, systems, L, K, d_max, variant, seed, **_):
    """Constructive approximation check over random symmetric systems."""
    bank = fb.compute_filterbank(L, max(K), fb.HankelVariant(variant))
    rows = []
    rng = np.random.default_rng(seed)
    for i in range(systems):
        d_h = int(rng.integers(1, d_max + 1))
        system = lds.random_symmetric_system(d_h, 3, 3, radius=float(rng.uniform(0.5, 1.0)),
                                             seed=seed + 1000 + i, dense=bool(i % 2))
        u = lds.bounded_inputs(1, bank.L, 3, seed=seed + 5000 + i)
        rows += [(i, *row) for row in theory.constructive_k_sweep(system, bank, u, K)]
    total = len(rows)
    satisfied = sum(err <= bound for _, _, err, bound in rows)
    report = {
        "systems": systems, "K": K, "L": L, "variant": variant, "checks": total,
        "satisfied": satisfied, "violations": total - satisfied,
    }
    _write_json(run.out / "report.json", report)
    _write_csv(run.out / "errors.csv", ["system", "K", "max_err", "bound"], rows)
    per_k = [
        (K_i, max(e for _, k, e, _ in rows if k == K_i), min(b for _, k, _, b in rows if k == K_i))
        for K_i in K
    ]
    _write_csv(run.out / "ksweep.csv", ["K", "max_err", "bound"], per_k)
    click.echo(f"{satisfied}/{total} checks satisfied")
    if satisfied != total:
        raise CheckFailed(f"{total - satisfied} bound violations")


@cli.command("verify-ar")
@click.option("--systems", type=int, default=20, show_default=True)
@click.option("--d-max", type=int, default=6, show_default=True)
@click.option("--length", type=int, default=200, show_default=True)
@click.option("--radius", type=float, default=0.99, show_default=True)
@click.option("--rtol", type=float, default=1e-8, show_default=True)
def verify_ar(run, systems, d_max, length, radius, rtol, seed, **_):
    """Check the exact finite autoregression against the rollout oracle."""
    rng = np.random.default_rng(seed)
    rows = []
    failures = 0
    for i in range(systems):
        d = int(rng.integers(1, d_max + 1))
        system = lds.random_symmetric_system(d, 2, 2, radius=radius, seed=seed + 100 + i,
                                             dense=bool(i % 2))
        u = lds.random_inputs(2, length, 2, seed=seed + 900 + i)
        y = lds.simulate_lds(system, u)
        y_ar = theory.ar_coefficients(system).predict(u)
        rel = float(np.abs(y - y_ar).max() / max(np.abs(y).max(), 1e-300))
        rows.append((i, d, rel))
        failures += int(rel > rtol)
    _write_json(run.out / "report.json", {
        "systems": systems, "rtol": rtol, "failures": failures,
        "max_rel_err": max(r for _, _, r in rows),
    })
    _write_csv(run.out / "errors.csv", ["system", "d", "rel_err"], rows)
    click.echo(f"{systems - failures}/{systems} exact")
    if failures:
        raise CheckFailed(f"{failures} systems exceeded rtol")


@cli.command("fit-stu")
@click.option("--fixture", default="marginal", show_default=True)
@click.option("--K", "K", type=int, default=25, show_default=True)
@click.option("--k-y", type=int, default=0, show_default=True)
@click.option("--length", type=int, default=256, show_default=True)
@click.option("--sequences", type=int, default=32, show_default=True)
@click.option("--steps", type=int, default=2000, show_default=True)
@click.option("--lr", type=float, default=5e-3, show_default=True)
def fit_stu_cmd(run, fixture, K, k_y, length, sequences, steps, lr, seed, **_):
    """Train an STU layer on rollouts of a fixture system."""
    system = _fixture_system(fixture)
    # A bank holds at least one filter; K = 0 fits the taps-only layer, as in sweep-k.
    bank = fb.compute_filterbank(length, max(K, 1))
    u = lds.random_inputs(sequences, bank.L, system.d_in, seed + 1)
    y = lds.simulate_lds(system, u)
    tc = trainer.TrainConfig(learning_rate=lr, steps=steps, batch_size=1, seed=seed)
    report = trainer.fit_stu((u, y), bank, K, k_y, tc)
    final_loss = trainer.stu_mse(report.final_params, bank, u, y)
    _write_report(run, report, final_loss, extra={"initial_mse": float((y**2).mean())})
    save_stu_params(report.final_params, run.out / "params")
    click.echo(f"final loss {final_loss:.6e}")


@cli.command("fit-lru")
@click.option("--fixture", default="marginal", show_default=True)
@click.option("--d-hidden", type=int, default=32, show_default=True)
@click.option("--length", type=int, default=256, show_default=True)
@click.option("--sequences", type=int, default=32, show_default=True)
@click.option("--steps", type=int, default=3000, show_default=True)
@click.option("--lr", type=float, default=5e-2, show_default=True)
@click.option("--stable-exp/--no-stable-exp", default=True, show_default=True)
@click.option("--gamma-norm/--no-gamma-norm", default=True, show_default=True)
@click.option("--ring-min", type=float, default=0.9, show_default=True)
@click.option("--ring-max", type=float, default=0.999, show_default=True)
@click.option("--max-phase", type=float, default=6.28, show_default=True)
@click.option("--schedule", type=click.Choice(["constant", "warmup_cosine"]), default="warmup_cosine")
def fit_lru_cmd(run, fixture, d_hidden, length, sequences, steps, lr, stable_exp, gamma_norm,
                ring_min, ring_max, max_phase, schedule, seed, **_):
    """Train the diagonal RNN baseline on rollouts of a fixture system."""
    system = _fixture_system(fixture)
    u = lds.random_inputs(sequences, length, system.d_in, seed + 1)
    y = lds.simulate_lds(system, u)
    options = trainer.LruOptions(stable_exp=stable_exp, gamma_norm=gamma_norm,
                                 ring_init=(ring_min, ring_max), max_init_phase=max_phase)
    tc = trainer.TrainConfig(learning_rate=lr, steps=steps, batch_size=2, seed=seed,
                             lr_schedule=schedule)
    try:
        report = trainer.fit_lru((u, y), d_hidden, tc, options)
    except trainer.TrainingDiverged as exc:
        report = exc.report
    # A diverged run keeps its non-finite loss.
    final_loss = None if report.diverged else trainer.lru_mse(report.final_params, u, y)
    _write_report(run, report, final_loss, extra={"initial_mse": float((y**2).mean())})
    container.save_arrays(run.out / "params", {"kind": "train_params"},
                          dict(report.final_params.named_arrays()))
    click.echo("diverged" if report.diverged else f"final loss {final_loss:.6e}")


@cli.command("sweep-k")
@click.option("--fixture", default="marginal", show_default=True)
@click.option("--K", "K", type=IntList(), default="1..30", show_default=True,
              help="Range A..B or comma list.")
@click.option("--length", type=int, default=256, show_default=True)
@click.option("--sequences", type=int, default=8, show_default=True)
@click.option("--noise-std", type=float, default=0.0, show_default=True)
@click.option("--method", type=click.Choice(["ls", "sgd"]), default="ls", show_default=True)
def sweep_k(run, fixture, K, length, sequences, noise_std, method, seed, **_):
    """Least-squares reconstruction error as a function of the filter count."""
    system = _fixture_system(fixture)
    bank = fb.compute_filterbank(length, max(K))
    rows = trainer.k_sweep(system, K, bank, trainer.TrainConfig(seed=seed),
                           n_sequences=sequences, method=method, noise_std=noise_std)
    _write_csv(run.out / "sweep.csv", ["K", "final_error"], [(k, float(e)) for k, e in rows])
    click.echo(f"wrote {run.out / 'sweep.csv'}")


@cli.command("train-stack")
@click.option("--task", type=click.Choice(stack.TASKS), default="delayed_recall", show_default=True)
@click.option("--length", type=int, default=256, show_default=True)
@click.option("--steps", type=int, default=800, show_default=True)
@click.option("--lr", type=float, default=2e-2, show_default=True)
@click.option("--batch-size", type=int, default=64, show_default=True)
@click.option("--n-train", type=int, default=2048, show_default=True)
@click.option("--n-eval", type=int, default=512, show_default=True)
def train_stack_cmd(run, task, length, steps, lr, batch_size, n_train, n_eval, seed, **_):
    """Train the stacked classifier on a synthetic task."""
    tc = trainer.TrainConfig(learning_rate=lr, steps=steps, batch_size=batch_size, seed=seed)
    report = stack.train_stack(task, tc, L=length, n_train=n_train, n_eval=n_eval)
    _write_report(run, report, report.metrics["train_loss"])
    stack.save_stack(report.final_params, run.out / "checkpoint")
    click.echo(f"eval accuracy {report.metrics.get('eval_accuracy'):.4f}")


def _write_report(run: RunContext, report, final_loss: float | None,
                  extra: dict | None = None) -> None:
    """report.json and loss.csv.  fit-stu and fit-lru pass as final_loss the
    dataset MSE of the params they save (None, written as null, when fit-lru
    diverged), and train-stack their mean cross-entropy over the training set."""
    doc = {
        "config": dataclasses.asdict(report.config),
        "diverged": report.diverged,
        "divergence_step": report.divergence_step,
        "final_loss": None if final_loss is None else float(final_loss),
        "metrics": report.metrics,
    }
    if extra:
        doc.update(extra)
    _write_json(run.out / "report.json", doc)
    _write_csv(run.out / "loss.csv", ["step", "loss"],
               [(i, float(l)) for i, l in enumerate(report.loss_curve)])


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 64
    except CheckFailed as exc:
        click.echo(f"check failed: {exc}", err=True)
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
