"""Tests of the benchmark's own code: percentiles, self time, the metric
schema, and a tiny-size run of each workload."""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
from harness import (END_TO_END, PER_LAYER, BlockClock, HostReference, Span, Tracer,
                     host_corrected, percentile, run_workload, self_times)
from run import WORKLOAD_NAMES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    # Tiny set-ups and items take about a millisecond; SETUP_MIN set-ups, and
    # blocks of a few dozen items, are enough here.
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(harness, "BLOCK_SECONDS", 0.05)


TINY = {
    "stack_train": dict(L=32, batch=4, n_train=16, n_eval=8, d_model=4, K=4, check_batch=2),
    "lds_fit": dict(L=32, sequences=4, K=6, d_hidden=4),
    "verify_long": dict(L=64, K=8),
}


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(100), 90) == pytest.approx(np.percentile(range(100), 90))
    assert percentile(range(20), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError, match="need at least 10"):
        percentile(range(99), 90)
    with pytest.raises(ValueError):
        percentile(range(19), 50)


def test_host_correction_divides_each_block_by_the_slowdown_over_it():
    blocks = [[2.0, 6.0], [3.0]]
    assert host_corrected(blocks, [2.0, 1.5]) == pytest.approx([1.0, 3.0, 2.0])


def test_block_clock_samples_the_reference_for_a_share_of_each_block():
    clock = BlockClock(HostReference())
    for seconds in (0.2, 0.2, 0.1):
        clock.add(seconds)
    assert clock._reference_s >= harness.REFERENCE_SHARE * clock.open_s
    clock.close_block()
    clock.close_block()  # nothing open: no empty block
    clock.add(0.6)
    assert clock._reference_s == 0.0  # no time inside a block of one call
    clock.close_block()
    assert clock.blocks() == [[0.2, 0.2, 0.1], [0.6]]
    assert 0 < clock.slowdowns[0] < 100 and clock.slowdowns[1] == 1.0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("item", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 4.0, 0, 0),  # overlaps a: only [3, 4] is new
        Span("c", 8.0, 12.0, 0, 0),  # runs past its parent: only [8, 10] counts
        Span("a.inner", 1.5, 2.5, 1, 0),  # grandchild: subtracted from a, not item
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


def test_tracer_nests_spans_and_ignores_work_while_disabled():
    tracer = Tracer(enabled=True)
    tracer.item = 3
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.count("n", 2)
    tracer.enabled = False
    with tracer.span("skipped"):
        tracer.count("n")
    assert [(s.name, s.parent, s.item) for s in tracer.spans] == [("outer", None, 3), ("inner", 0, 3)]
    assert tracer.counts["n"] == 2


def test_metric_names_are_valid_unique_and_match_benchmark_json():
    names = [name for name, _ in END_TO_END] + [name for name, _, _, _ in PER_LAYER]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(set(names)) == len(names)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _, _ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)
    bases = {base for _, _, _, base in PER_LAYER if base}
    assert bases <= {name for name, _, _, _ in PER_LAYER}


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace):
    workload = WORKLOADS[name](**TINY[name])
    result, tracer = run_workload(workload, seed=5, seconds=1e-3, trace=trace)
    assert result["correct"] and result["failed"] == 0
    items = result["attempted"] - 1  # the once-per-run checks count as one
    assert items % workload.cycle == 0
    want = [n for n, _, _, _ in PER_LAYER] if trace else [n for n, _ in END_TO_END]
    assert list(result["metrics"]) == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        cycles = items // workload.cycle
        assert result["metrics"]["trace.items"]["value"] == cycles // 2 * workload.cycle
        assert all(s.end >= s.start for s in tracer.spans)
    else:
        assert result["metrics"]["ops_ok_frac"]["value"] == 1.0


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lds_fit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_wrong_but_finite_forward_pass_fails_the_run(name, monkeypatch):
    import spectral_ssm.stack as stack_module
    import spectral_ssm.stu as stu_module

    forward, layer = stu_module.forward, stack_module._stu_layer_forward
    monkeypatch.setattr(stu_module, "forward", lambda *a: forward(*a) * (1 + 1e-6))
    monkeypatch.setattr(stack_module, "_stu_layer_forward",
                        lambda *a: (lambda y, cache: (y * (1 + 1e-6), cache))(*layer(*a)))
    workload = WORKLOADS[name](**TINY[name])
    result, _ = run_workload(workload, seed=5, seconds=1e-3, trace=False)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0
