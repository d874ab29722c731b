"""Pair comparison of two trees, and baseline runs of one, with run.py.

Compare a change against its parent with the same benchmark code and
settings for both trees (the solver comes from each tree's ``src/``):

    python3 perfbench/compare.py pair --parent /path/to/parent --change . \
        --pairs 10 --out perfbench/out/compare.json

Pair i runs both trees on seed ``i + 1`` at the benchmark's ``run_seconds``,
so the first pair is the default seed, whose points must also reproduce
``reference.json``; which tree runs first alternates from pair to pair.  For
every end-to-end metric x workload the report gives each side's median and
quartiles, the number of pairs the change won (ties count for neither side)
and a verdict:

- ``better``: the change wins at least 9 in 10 pairs and the medians differ by
  more than the parent's interquartile distance;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- ``unresolved``: the spread (interquartile distance / median) of either side
  exceeds the bound, unless every change run reads better than every parent
  run;
- ``unchanged``: none of the above.

The exit status is 1 when a metric is ``worse`` on some workload or more
points failed on the change than on the parent.  ``--workloads parallel-grid``
compares the pool workload, which BENCHMARK.json does not list; its time
spreads exceed the bounds at the seed commit, so its time metrics read
``unresolved`` there unless the change is ``better`` or ``worse``.

Measure one tree on several seeds (the committed baseline comes from this):

    python3 perfbench/compare.py baseline --runs 10 \
        --workloads fast-grid paper-symmetric parallel-grid --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 600
WIN_SHARE = 0.9
# pairs start at the default seed, so the reference check counts in `failed`
FIRST_SEED = 1
# traced runs of the default seed per workload in a baseline; their count
# metrics must repeat exactly
TRACE_RUNS = 2


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_once(repo: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py invocation; returns its result line and machine facts."""
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--repo", str(repo),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    machine = next(
        (json.loads(x[len("machine: "):]) for x in lines if x.startswith("machine: ")),
        None,
    )
    return {"seed": seed, "result": json.loads(lines[-1]), "machine": machine}


def summary(values: list[float]) -> dict:
    """Median, quartiles and spread (interquartile distance / median)."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p, c = summary(parent), summary(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    parent_iqr = p["q3"] - p["q1"]
    gap = sign * (c["median"] - p["median"])
    need = WIN_SHARE * len(parent)
    every_better = sign * (min(change) if sign > 0 else max(change)) > sign * (
        max(parent) if sign > 0 else min(parent)
    )
    if wins >= need and gap > parent_iqr:
        word = "better"
    elif -gap > bound * abs(p["median"]):
        word = "worse"
    elif max(p["spread"], c["spread"]) > bound and not every_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return {"parent": p, "change": c, "wins": wins, "losses": losses,
            "pairs": len(parent), "verdict": word}


def pair(args) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": seconds, "workloads": {}}
    regressed = False
    for w in names:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                repo = args.parent if side == "parent" else args.change
                runs[side].append(run_once(repo, w, seed, seconds, 0))
        rows = {}
        for m in spec["end_to_end"]:
            values = {
                side: [r["result"]["metrics"][m["name"]]["value"] for r in runs[side]]
                for side in runs
            }
            rows[m["name"]] = dict(
                unit=m["unit"],
                **verdict(values["parent"], values["change"], m["better"], m["bound"]),
            )
            regressed |= rows[m["name"]]["verdict"] == "worse"
        failed = {s: sum(r["result"]["failed"] for r in runs[s]) for s in runs}
        # a gain does not count when more points fail than at the parent
        regressed |= failed["change"] > failed["parent"]
        report["workloads"][w] = {
            "failed": failed,
            "machine": runs["change"][0]["machine"],
            "metrics": rows,
        }
        _print_pair_rows(w, rows)
        print(f"  failed points: parent {failed['parent']}, change {failed['change']}")
    _write(args.out, report)
    return 1 if regressed else 0


def _print_pair_rows(workload: str, rows: dict) -> None:
    print(f"# {workload}: median [q1, q3] of parent -> change, wins, verdict")
    for name, r in rows.items():
        p, c = r["parent"], r["change"]
        print(
            f"  {name:<26} {p['median']:.5g} [{p['q1']:.5g}, {p['q3']:.5g}]"
            f" -> {c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}] {r['unit']},"
            f" wins {r['wins']}/{r['pairs']}, {r['verdict']}"
        )


def baseline(args) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": seconds, "machine": None, "workloads": {}}
    ok = True
    for w in names:
        entry = {}
        for trace, seeds in ((0, range(1, args.runs + 1)), (1, [1] * TRACE_RUNS)):
            runs = [run_once(args.repo, w, s, seconds, trace) for s in seeds]
            report["machine"] = report["machine"] or runs[0]["machine"]
            ok &= all(r["result"]["correct"] for r in runs)
            metrics = {}
            for m in spec["per_layer" if trace else "end_to_end"]:
                s = summary([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                metrics[m["name"]] = {"unit": m["unit"], **s}
                if "bound" in m:
                    metrics[m["name"]]["bound"] = m["bound"]
            entry["per_layer" if trace else "end_to_end"] = {
                "seeds": list(seeds),
                "attempted": [r["result"]["attempted"] for r in runs],
                "failed": [r["result"]["failed"] for r in runs],
                "metrics": metrics,
            }
        report["workloads"][w] = entry
        _print_baseline_rows(w, entry)
    _write(args.out, report)
    return 0 if ok else 1


def _print_baseline_rows(workload: str, entry: dict) -> None:
    print(f"# {workload}")
    for part in ("end_to_end", "per_layer"):
        for name, m in entry[part]["metrics"].items():
            bound = m.get("bound")
            tag = "" if bound is None else f"  spread/bound {m['spread'] / bound:.2f}"
            print(
                f"  {name:<26} {m['median']:>12.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"
                f" spread {m['spread']:.4f}{tag} ({m['unit']})"
            )


def _write(path: Path | None, report: dict) -> None:
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pair", help="parent vs change, alternating order")
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--pairs", type=int, default=10)
    b = sub.add_parser("baseline", help="one tree, seeds 1..runs")
    b.add_argument("--repo", type=Path, default=BENCH_DIR.parent)
    b.add_argument("--runs", type=int, default=10)
    for sp in (p, b):
        # parallel-grid is not in BENCHMARK.json, but the pool and BLAS
        # thread work has its baseline there and is compared on it
        sp.add_argument("--workloads", nargs="+", help="default: BENCHMARK.json's")
        sp.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    return pair(args) if args.mode == "pair" else baseline(args)


if __name__ == "__main__":
    sys.exit(main())
