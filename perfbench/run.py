"""Benchmark of the spinboson-nrg solver: one workload, one run, one result.

    python3 perfbench/run.py --workload fast-grid --seed 7 --seconds 45 --trace 0

Workloads (``harness.workloads``; README.md says why each exists):

- ``fast-grid``: serial ``run_sweep(jobs=1)`` at the fast defaults over
  alpha in [0.1, 0.9] x eps/Delta in {0.02, 0.1, 0.5}, Delta/wc = 0.04;
- ``paper-symmetric``: serial ``run_point`` at ``NRGConfig.paper_fidelity()``,
  eps = 0, Delta/wc = 0.04, alpha in [0.3, 0.5];
- ``parallel-grid``: ``run_sweep(jobs=min(2, nproc))`` at the fast defaults
  over alpha in [0.2, 0.3] and [0.7, 0.8] x Delta/wc in {0.01, 0.04, 0.1},
  eps = 0.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` is the
median wall time of several fresh interpreters that import the solver and
build the workload's points; the rest come from a separate workload process
that runs the closed loop untraced.  With ``--trace 1`` it reports the
per-layer metrics of a traced run over a fixed batch of the seed's points.

The solver is imported from ``<repo>/src`` (``--repo`` defaults to the tree
that holds this directory).  The process sets no BLAS thread variable.  The
last line of standard output is the JSON result; the exit status is 0 only
when every point passed the correctness gate.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
SETUP_RUNS = 15
SETUP_CALLS = 64
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SNIPPET = (
    "import sys, harness\n"
    "w = harness.workloads()[sys.argv[1]]\n"
    "[harness.call_points(c) for c in w.calls(int(sys.argv[2]), int(sys.argv[3]))]\n"
)


def metric_units(trace: int) -> dict[str, str]:
    """Metric name -> unit for one mode, from BENCHMARK.json."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def solver_env(src: Path) -> dict[str, str]:
    """The caller's environment with the solver and the harness importable."""
    env = dict(os.environ)
    paths = [str(src), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def setup_seconds(env: dict[str, str], workload: str, seed: int, runs: int) -> float:
    """Median wall time of fresh interpreters importing the solver and
    building the workload's points."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms and the
        # measured time snaps to that grid
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, workload, str(seed), str(SETUP_CALLS)],
            env=env, cwd=BENCH_DIR.parent, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(repo: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine_facts(repo: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "git_commit": _git_commit(repo),
    }


def run_worker(env: dict[str, str], args) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # its own session, so that a timeout also ends the pool workers it forked
    with subprocess.Popen(
        cmd, env=env, cwd=BENCH_DIR.parent, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"workload process exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"workload process failed with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def result_line(result: dict, values: dict[str, float], units: dict[str, str]) -> dict:
    """The final JSON line: verdict, counts and every metric with its unit."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise ValueError(f"metrics not measured: {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spinboson-nrg solver benchmark")
    ap.add_argument(
        "--workload", required=True,
        choices=("fast-grid", "paper-symmetric", "parallel-grid"),
    )
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--repo", type=Path, default=BENCH_DIR.parent,
        help="tree whose src/ holds the solver to measure",
    )
    args = ap.parse_args(argv)

    repo = args.repo.resolve()
    src = repo / "src"
    if not (src / "spinboson_nrg" / "__init__.py").is_file():
        sys.stderr.write(f"no solver sources under {src}\n")
        return 2
    units = metric_units(args.trace)
    env = solver_env(src)

    result = run_worker(env, args)
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = setup_seconds(env, args.workload, args.seed, SETUP_RUNS)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print("machine: " + json.dumps(machine_facts(repo)))
    print("info: " + json.dumps(result["info"]))
    for f in result["failures"]:
        print(f"FAILED {f['point']}: {f['reason']}")
    for name, unit in units.items():
        print(f"  {name:<26} {values[name]:>14.6g} {unit}")
    line = result_line(result, values, units)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
