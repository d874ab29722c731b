"""Record sx and sz of the default seed's points into reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py

Every point of the first calls of each workload's default-seed stream is
solved serially with ``run_point``.  A benchmark run on the default seed then
requires every point it meets in the file to reproduce sx and sz to
``harness.REFERENCE_TOL``.  Re-record only when a change is meant to move the
observables.
"""

import json
import sys

import harness
from spinboson_nrg import run_point

# about twice the calls one run made when the reference was recorded
REFERENCE_CALLS = {"fast-grid": 8, "paper-symmetric": 12, "parallel-grid": 6}


def main() -> int:
    rows = {}
    for name, w in harness.workloads().items():
        rows[name] = []
        for call in w.calls(harness.DEFAULT_SEED, REFERENCE_CALLS[name]):
            for p in harness.call_points(call):
                rec = run_point(p, w.config)
                reason = harness.check_point(p, rec, w.config)
                if reason is not None:
                    raise SystemExit(f"{name} {harness.point_key(p)}: {reason}")
                rows[name].append([*harness.point_key(p), rec.sx, rec.sz])
            print(name, len(rows[name]), flush=True)
    write_reference(rows)
    return 0


def write_reference(rows: dict[str, list[list[float]]]) -> None:
    """One point per line: alpha, eps/Delta, Delta/wc, sx, sz."""
    with open(harness.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {harness.DEFAULT_SEED}, "workloads": {{\n')
        fh.write(",\n".join(
            f'"{name}": [\n' + ",\n".join(json.dumps(r) for r in rs) + "\n]"
            for name, rs in rows.items()
        ))
        fh.write("\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
