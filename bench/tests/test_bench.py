"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

cli = workloads.import_program()


def _bindings():
    """Every (owner, name) -> object the tracer may patch."""
    out = {}
    for mod_name, m in sys.modules.items():
        if m is not None and mod_name.startswith("polebracket"):
            out.update({(mod_name, k): v for k, v in vars(m).items() if callable(v)})
    import polebracket.cells as cells
    import polebracket.surfaces as surfaces

    for cls in (surfaces.ClosedSurface, cells.PolygonComplex):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_uninstall_restores_originals():
    import polebracket.brackets as brackets
    import polebracket.states as states

    before = _bindings()
    original = states.sum_counts
    with tracing.Tracer():
        assert brackets.sum_counts is not original
        assert brackets.sum_counts is states.sum_counts
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_of_nested_spans():
    # (name, start, end, parent, op, ok); a contains b and d, b contains c
    spans = [
        ("a", 0, 100, -1, 0, True),
        ("b", 10, 40, 0, 0, True),
        ("c", 20, 30, 1, 0, True),
        ("d", 50, 60, 0, 0, False),
        ("b", 200, 205, -1, 1, True),
    ]
    st = tracing.self_times(spans)
    assert st == {"a": (60e-9, 1), "b": (25e-9, 2), "c": (10e-9, 1), "d": (10e-9, 1)}
    # self times add up to the root spans' durations
    assert sum(v[0] for v in st.values()) == pytest.approx(105e-9)
    assert tracing.self_times(spans, 2.0)["a"] == (120e-9, 1)
    # the wrapper cost comes off: 1 ns inside each span, 2 ns outside each
    # child, billed to its parent
    net = tracing.self_times(spans, 1.0, 2.0, 1.0)
    assert net["a"] == pytest.approx((55e-9, 1))
    assert net["b"] == pytest.approx((21e-9, 2))
    assert net["c"] == pytest.approx((9e-9, 1))
    assert sum(v[0] for v in net.values()) == pytest.approx(105e-9 - 3 * 2e-9 - 5 * 1e-9)


def test_wrapper_cost_is_positive():
    outside, inside = tracing.wrapper_cost(calls=2000, rounds=3)
    assert outside > 0 and inside > 0


def test_each_workload_at_tiny_size():
    pools = workloads.load_pools()
    for workload in ("statesum", "surfaces", "check"):
        cheapest = sorted(pools[workload], key=lambda it: it["cost_s"])[:2]
        ops = workloads.plan(workload, cheapest, seed=3, budget_s=1e9)
        cmds = workloads.COMMANDS[workload]
        assert [cmd for _, cmd in ops] == list(cmds) * 2
        before = _bindings()
        latencies, cals, codes, outputs = run.run_ops(cli, ops)
        assert run.failed_ops(ops, codes, outputs) == 0
        assert len(latencies) == len(cals) - 1 == len(ops)
        assert all(t > 0 for t in run.scaled(latencies, cals))
        t = tracing.Tracer()
        plain, traced, cals, codes, paired_outputs = run.run_paired(cli, ops, t)
        assert len(plain) == len(traced) == len(cals) - 1 == len(ops)
        assert run.failed_ops([op for op in ops for _ in range(2)], codes, paired_outputs) == 0
        assert paired_outputs == [out for out in outputs for _ in range(2)]
        assert _bindings() == before
        metrics = tracing.layer_metrics(t.spans, t.states)
        assert metrics["surfaces.closed_surface.calls"][0] >= len(ops)
        assert metrics["cli.self_s"][0] > 0
        if workload == "statesum":
            assert metrics["states.states"][0] == sum(1 << it["crossings"] for it, _ in ops)
            assert run.workers_identity(cli, ops, outputs)
        if workload == "check":
            assert metrics["moves.apply_move.calls"][0] > 0
            assert 0 < metrics["moves.accept_ratio"][0] <= 1


def test_plan_is_seeded():
    items = workloads.load_pools()["statesum"]
    assert workloads.plan("statesum", items, 5, 20) == workloads.plan("statesum", items, 5, 20)
    assert workloads.plan("statesum", items, 5, 20) != workloads.plan("statesum", items, 6, 20)


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
