"""Self-test of the benchmark harness on one tiny fast point.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import harness  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from spinboson_nrg import NRGConfig, SpinBosonPoint, SweepSpec  # noqa: E402


def _tiny_call(u: list[float]) -> SweepSpec:
    return SweepSpec(alpha=(0.2 + 0.1 * u[0],), eps_over_delta=(0.1,), delta_ratio=(0.04,))


TINY = harness.Workload("tiny", NRGConfig(n_keep=16, n_max=12), 1, 1, _tiny_call, 1, 1)
COUNTS = ("engine.eigh_calls", "engine.eigh_dim3", "engine.iterations")


def _originals():
    return [getattr(owner, attr) for owner, attr, _, _ in layertrace.TARGETS]


def test_every_named_metric_appears_with_its_unit(tmp_path):
    env = run.solver_env(BENCH_DIR.parent / "src")
    e2e = harness.measure(TINY, seed=3, seconds=0.0)
    values = dict(e2e["metrics"], setup_s=run.setup_seconds(env, "fast-grid", 3, 1))
    traced = harness.measure_traced(TINY, seed=3, out_dir=tmp_path)
    # the closed loop runs one antithetic pair of calls, the trace one call
    for trace, result, vals, n in ((0, e2e, values, 2), (1, traced, traced["metrics"], 1)):
        units = run.metric_units(trace)
        assert set(vals) == set(units)
        line = run.result_line(result, vals, units)
        assert line["attempted"] == n
        for name, unit in units.items():
            assert line["metrics"][name]["unit"] == unit
            assert isinstance(line["metrics"][name]["value"], (int, float))
    assert (tmp_path / "spans-tiny-seed3.jsonl").stat().st_size > 0


def test_traced_run_restores_the_patched_functions(tmp_path):
    before = _originals()
    harness.measure_traced(TINY, seed=3, out_dir=tmp_path)
    assert all(a is b for a, b in zip(_originals(), before))
    with pytest.raises(ZeroDivisionError):
        with layertrace.Tracer():
            assert not any(a is b for a, b in zip(_originals(), before))
            1 / 0
    assert all(a is b for a, b in zip(_originals(), before))


@pytest.mark.parametrize("name", sorted(harness.workloads()))
def test_same_seed_gives_the_same_point_lists(name):
    w = harness.workloads()[name]
    first = [harness.call_points(c) for c in w.calls(7, 6)]
    assert first == [harness.call_points(c) for c in w.calls(7, 6)]
    assert first != [harness.call_points(c) for c in w.calls(8, 6)]
    assert all(isinstance(p, SpinBosonPoint) for pts in first for p in pts)


def test_count_metrics_repeat_exactly(tmp_path):
    runs = [harness.measure_traced(TINY, seed=5, out_dir=tmp_path) for _ in range(2)]
    counts = [{k: r["metrics"][k] for k in COUNTS} for r in runs]
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_pair_verdicts_follow_the_win_rule_and_the_bound():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "better"
    assert compare.verdict(faster, parent, "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
