"""Workloads, closed-loop measurement and the correctness gate of the benchmark.

The harness drives the solver only through its public functions
(``sweep.run_sweep``, ``sweep.run_point``, ``oracle.compare_with_nrg``,
``chain.build_chain``, ``params.map_to_kondo``).  One client issues calls in
a closed loop: each call returns before the next one starts.  The workload
seed draws the inputs; the solver receives only the generated points.

Run as a script, this module is the workload process that ``run.py`` starts:

    PYTHONPATH=src python3 perfbench/harness.py --workload fast-grid \
        --seed 1 --seconds 45 --trace 0

It prints one JSON object with the measured metrics and the correctness
verdict of every point.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spinboson_nrg import (
    NRGConfig,
    SpinBosonPoint,
    SweepSpec,
    build_chain,
    compare_with_nrg,
    map_to_kondo,
    run_point,
    run_sweep,
)

from layertrace import Tracer

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 1
# sx and sz of the default seed must match the recorded reference this closely
REFERENCE_TOL = 1e-10
# |sigma| <= 1 and E in [0, 1], up to the solver's own roundoff
BOUND_TOL = 1e-9
ORACLE_SITES = 3


def _in(lo: float, hi: float, u: float) -> float:
    return round(lo + (hi - lo) * u, 9)


@dataclass(frozen=True)
class Workload:
    """A named input stream and the way its calls reach the solver.

    ``jobs == 0`` sends each point through ``run_point``; otherwise each call
    is one ``run_sweep(spec, config, jobs)``.  ``make_call(u)`` turns
    ``jitters`` uniform numbers into one call.  ``trace_calls`` is the fixed
    prefix of the stream that a traced run measures, so that its counts
    repeat exactly for a seed.  A traced run also sends the points of the
    first ``pool_alphas`` alpha values of the first call through a process
    pool of ``pool_jobs()`` workers (0: no pool pass).
    """

    name: str
    config: NRGConfig
    jobs: int
    jitters: int
    make_call: Callable[[list[float]], object]
    trace_calls: int
    pool_alphas: int

    def calls(self, seed: int, n: int) -> list:
        return list(itertools.islice(iter_calls(self, seed), n))


def iter_calls(w: Workload, seed: int):
    """The seed's endless call stream, in antithetic pairs.

    Call 2j draws fresh jitters u and call 2j+1 uses 1 - u, so every pair
    covers its ranges symmetrically and the work of a run depends little on
    the seed.
    """
    rng = random.Random(f"{w.name}:{seed}")
    while True:
        u = [rng.random() for _ in range(w.jitters)]
        yield w.make_call(u)
        yield w.make_call([1.0 - x for x in u])


def _fast_grid_call(u: list[float]) -> SweepSpec:
    # one alpha from each quarter of [0.1, 0.9]
    return SweepSpec(
        alpha=tuple(_in(0.1 + 0.2 * i, 0.3 + 0.2 * i, x) for i, x in enumerate(u)),
        eps_over_delta=(0.02, 0.1, 0.5),
        delta_ratio=(0.04,),
    )


def _paper_symmetric_call(u: list[float]) -> SpinBosonPoint:
    # only about 6 points fit in a run, so alpha stays in a band where n_m
    # varies by a few iterations and the cost of a run hardly depends on it
    return SpinBosonPoint(alpha=_in(0.3, 0.5, u[0]), epsilon=0.0, delta_ratio=0.04)


def _parallel_grid_call(u: list[float]) -> SweepSpec:
    # a cheap and an expensive alpha: at Delta/wc = 0.01 the second iterates
    # about twice as long, so the slowest point sets the tail of the call
    return SweepSpec(
        alpha=(_in(0.2, 0.3, u[0]), _in(0.7, 0.8, u[1])),
        eps_over_delta=(0.0,),
        delta_ratio=(0.01, 0.04, 0.1),
    )


def pool_jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def workloads() -> dict[str, Workload]:
    return {
        w.name: w
        for w in (
            # the pool pass: one alpha x three eps/Delta, so three points on
            # two workers and the load imbalance shows
            Workload("fast-grid", NRGConfig(), 1, 4, _fast_grid_call, 1, 1),
            # no pool pass: two paper-fidelity points in an oversubscribed
            # pool could outlast the run's time limit
            Workload(
                "paper-symmetric", NRGConfig.paper_fidelity(), 0, 1,
                _paper_symmetric_call, 2, 0,
            ),
            Workload(
                "parallel-grid", NRGConfig(), pool_jobs(), 2, _parallel_grid_call, 1, 2,
            ),
        )
    }


def call_points(call) -> list[SpinBosonPoint]:
    return call.points() if isinstance(call, SweepSpec) else [call]


def point_key(p: SpinBosonPoint) -> tuple[float, float, float]:
    return (p.alpha, p.epsilon, p.delta_ratio)


# ---------------------------------------------------------------- correctness


def load_reference(workload: str) -> dict[tuple[float, float, float], tuple[float, float]]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        rows = json.load(fh)["workloads"].get(workload, [])
    return {(a, e, d): (sx, sz) for a, e, d, sx, sz in rows}


def check_point(p: SpinBosonPoint, rec, cfg: NRGConfig, reference=None) -> str | None:
    """None if the record passes every check, else the first failed check."""
    if rec.error is not None:
        return f"error: {rec.error}"
    if not rec.converged:
        return f"unconverged at N={rec.n_m}"
    values = (rec.sx, rec.sz, rec.entropy, rec.p_plus, rec.p_minus)
    if not all(math.isfinite(v) for v in values):
        return "non-finite observable"
    if math.hypot(rec.sx, rec.sz) > 1.0 + BOUND_TOL:
        return f"|sigma| = {math.hypot(rec.sx, rec.sz)!r} > 1"
    if abs(rec.p_plus + rec.p_minus - 1.0) > 1e-12:
        return f"p+ + p- = {rec.p_plus + rec.p_minus!r}"
    if not -BOUND_TOL <= rec.entropy <= 1.0 + BOUND_TOL:
        return f"entropy {rec.entropy!r} outside [0, 1]"
    oracle = compare_with_nrg(
        map_to_kondo(p), build_chain(cfg.lam, ORACLE_SITES), ORACLE_SITES
    )
    if not oracle.passed:
        return (
            f"oracle mismatch on {ORACLE_SITES} sites: eigenvalues"
            f" {oracle.max_eigenvalue_dev:.2e}, sx {oracle.sx_dev:.2e},"
            f" sz {oracle.sz_dev:.2e}"
        )
    ref = None if reference is None else reference.get(point_key(p))
    if ref is not None:
        dev = max(abs(rec.sx - ref[0]), abs(rec.sz - ref[1]))
        if dev > REFERENCE_TOL:
            return f"sx/sz deviate from the recorded reference by {dev:.2e}"
    return None


# ---------------------------------------------------------------- measurement


def warm_up() -> None:
    """Pay numpy's lazy initialisation once, before any timed call."""
    run_point(
        SpinBosonPoint(alpha=0.5, epsilon=0.1, delta_ratio=0.04),
        NRGConfig(n_keep=16, n_max=8),
    )


def _execute(w: Workload, call, on_point=None) -> list:
    """One closed-loop call; on_point(record) runs as each point completes."""
    if w.jobs == 0:
        rec = run_point(call, w.config)
        if on_point:
            on_point(rec)
        return [rec]
    return run_sweep(call, w.config, jobs=w.jobs, progress=on_point)


def peak_rss_mb() -> float:
    """Largest RSS of this process and of its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def record_key(rec) -> tuple[float, float, float]:
    return (rec.alpha, rec.eps_over_delta, rec.delta_ratio)


class PointClock:
    """Progress callback timing each point of serial calls.

    ``start()`` marks the start of a call; each completed point then records
    the time since the previous point (or since the start of the call).
    """

    def __init__(self):
        self.times: list[float] = []
        self.first: float | None = None
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def __call__(self, _record) -> None:
        now = time.perf_counter()
        if self.first is None:
            self.first = now
        self.times.append(now - self._last)
        self._last = now


def _result(points, records, w: Workload, reference, metrics, info) -> dict:
    failures = []
    for p, rec in zip(points, records):
        reason = check_point(p, rec, w.config, reference)
        if reason is not None:
            failures.append({"point": point_key(p), "reason": reason})
    info["reference_checked"] = sum(
        1 for p in points if reference and point_key(p) in reference
    )
    return {
        "attempted": len(points),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "info": info,
    }


def measure(w: Workload, seed: int, seconds: float, reference=None) -> dict:
    """Closed loop for `seconds`, then the correctness gate on every point.

    The loop runs whole antithetic pairs of calls: another pair starts while
    at least half the median pair duration is left, so a run makes
    (budget / pair duration) pairs, rounded.  Checking happens after the loop
    and is not timed.
    """
    warm_up()
    points: list[SpinBosonPoint] = []
    records = []
    call_times: list[float] = []
    call_sizes: list[int] = []
    clock = PointClock()
    start = time.perf_counter()
    for call in iter_calls(w, seed):
        t0 = time.perf_counter()
        clock.start()
        by_key = {record_key(r): r for r in _execute(w, call, clock)}
        t1 = time.perf_counter()
        call_times.append(t1 - t0)
        call_sizes.append(len(call_points(call)))
        points.extend(call_points(call))
        records.extend(by_key[point_key(p)] for p in call_points(call))
        if len(call_times) % 2 == 0:
            pairs = [a + b for a, b in zip(call_times[::2], call_times[1::2])]
            if t1 - start + 0.5 * statistics.median(pairs) > seconds:
                break
    wall = time.perf_counter() - start

    result = _result(points, records, w, reference, {}, {})
    passed = len(points) - result["failed"]
    if w.jobs > 1:
        # pool results arrive in submission order, so their spacing is not a
        # point's cost; use the core-seconds per point of each call instead
        per_point = [w.jobs * t / n for t, n in zip(call_times, call_sizes)]
    else:
        per_point = clock.times
    result["metrics"] = {
        "points_per_s": passed / wall,
        "point_s_p50": statistics.median(per_point),
        "iterations_per_point": statistics.fmean(r.n_m for r in records),
        "peak_rss_mb": peak_rss_mb(),
        "pass_frac": passed / len(points),
    }
    result["info"].update(
        calls=len(call_times),
        call_s=call_times,
        wall_s=wall,
        point_s_samples=len(per_point),
    )
    return result


def measure_traced(w: Workload, seed: int, reference=None, out_dir: Path = OUT_DIR) -> dict:
    """Per-layer numbers from the fixed trace batch of the seed.

    Passes over the batch, none relying on pool workers seeing the wrappers:
    an untraced serial run_point loop (baseline of the busy fraction and of
    the tracing overhead); an untraced ``run_sweep`` through the process pool
    over the workload's pool share of the batch (first result, busy
    fraction); and a serial run_point loop under the tracer (layer spans).
    Without a pool share, the first result is that of the serial loop and the
    busy fraction is 1.
    """
    calls = w.calls(seed, w.trace_calls)
    points = [p for c in calls for p in call_points(c)]
    warm_up()

    serial_times = {}
    for p in points:
        t0 = time.perf_counter()
        run_point(p, w.config)
        serial_times[point_key(p)] = time.perf_counter() - t0
    serial_wall = sum(serial_times.values())

    if w.pool_alphas:
        first = calls[0]
        spec = SweepSpec(
            alpha=first.alpha[: w.pool_alphas],
            eps_over_delta=first.eps_over_delta,
            delta_ratio=first.delta_ratio,
        )
        jobs = pool_jobs()
        clock = PointClock()
        clock.start()
        t0 = time.perf_counter()
        run_sweep(spec, w.config, jobs=jobs, progress=clock)
        pool_wall = time.perf_counter() - t0
        first_result = clock.first - t0
        busy = sum(serial_times[point_key(p)] for p in spec.points()) / (jobs * pool_wall)
    else:
        first_result = serial_times[point_key(points[0])]
        busy = 1.0

    tracer = Tracer()
    records = []
    t1 = time.perf_counter()
    with tracer:
        for i, p in enumerate(points):
            with tracer.point(i):
                records.append(run_point(p, w.config))
    traced_wall = time.perf_counter() - t1
    path = tracer.write(out_dir / f"spans-{w.name}-seed{seed}.jsonl")

    metrics = tracer.layer_metrics()
    metrics["sweep.first_result_s"] = first_result
    metrics["sweep.busy_frac"] = busy
    metrics["trace.overhead_frac"] = traced_wall / serial_wall - 1.0
    info = {"trace_points": len(points), "spans": len(tracer.spans), "spans_file": str(path)}
    return _result(points, records, w, reference, metrics, info)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    w = workloads()[args.workload]
    reference = load_reference(w.name) if args.seed == DEFAULT_SEED else None
    if args.trace:
        result = measure_traced(w, args.seed, reference)
    else:
        result = measure(w, args.seed, args.seconds, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
