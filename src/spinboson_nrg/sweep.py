"""Point and grid-sweep execution, the alpha_M search, and CSV/JSON output.

All energies in the output are in half-bandwidth units (D0 = 1, wc = 2); the
level asymmetry is reported as the ratio eps/Delta.  Records are deterministic
functions of their inputs, and sweep rows are sorted by
(delta_ratio, eps_over_delta, alpha) regardless of execution order.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__, engine
from .chain import build_chain
from .engine import NRGConfig, run
from .observables import entanglement_entropy
from .oracle import compare_with_nrg, hellmann_feynman_check
from .params import DomainError, KondoParams, SpinBosonPoint, renormalized_tunneling

CSV_HEADER = (
    "alpha,eps_over_delta,delta_ratio,lambda,n_keep,n_m,converged,"
    "sx,sz,entropy,p_plus,p_minus,delta_r"
)

SIGN_CONVENTION_NOTE = (
    "reported sx = -<Ox + Ox^dag> and sz = -2<Sz>, so both approach +1 in"
    " their respective limits; the entropy depends only on the magnitude"
)


@dataclass(frozen=True)
class ObservableRecord:
    """Observables for one parameter point; the defaults are a failed point's."""

    alpha: float
    eps_over_delta: float
    delta_ratio: float
    lam: float
    n_keep: int
    n_m: int = 0
    converged: bool = False
    sx: float = math.nan
    sz: float = math.nan
    sy: float = 0.0
    norm: float = math.nan
    entropy: float = math.nan
    p_plus: float = math.nan
    p_minus: float = math.nan
    delta_r: float = math.nan
    even_odd_averaged: bool = False
    error: str | None = None


def _record(p: SpinBosonPoint, cfg: NRGConfig, **results) -> ObservableRecord:
    """A record of the inputs of one point and the given results."""
    return ObservableRecord(
        alpha=p.alpha,
        eps_over_delta=p.epsilon,
        delta_ratio=p.delta_ratio,
        lam=cfg.lam,
        n_keep=cfg.n_keep,
        **results,
    )


def run_point(p: SpinBosonPoint, cfg: NRGConfig) -> ObservableRecord:
    """Full pipeline for one point: map, iterate, read out, entangle."""
    _, report = run(p, cfg)
    p_plus, p_minus, entropy = entanglement_entropy(report.sx, report.sz)
    return _record(
        p,
        cfg,
        n_m=report.n_m,
        converged=report.converged,
        sx=report.sx,
        sz=report.sz,
        norm=math.hypot(report.sx, report.sz),
        entropy=entropy,
        p_plus=p_plus,
        p_minus=p_minus,
        delta_r=renormalized_tunneling(p),
        even_odd_averaged=report.even_odd_averaged,
    )


@dataclass
class AlphaMaxResult:
    alpha_m: float
    entropy_max: float
    n_evaluations: int
    evaluations: dict[float, ObservableRecord]  # each evaluated alpha's record
    unconverged: tuple[float, ...]  # the evaluated alphas whose run did not converge


ALPHA_MAX_GRID = tuple(round(0.1 * i, 2) for i in range(1, 10))
ALPHA_MAX_TOL = 0.01

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def find_alpha_max(
    eps_over_delta: float, delta_ratio: float, cfg: NRGConfig
) -> AlphaMaxResult:
    """Locate the interior maximum of the entropy as a function of alpha.

    One `run_point` per alpha: a scan of ALPHA_MAX_GRID, then golden-section
    refinement of the bracket down to |delta alpha| <= ALPHA_MAX_TOL.  The
    scan's left end is alpha = 0 with E = 0, as an isolated two-level system
    is unentangled; it is never solved and not in `evaluations`.  Only
    eps > 0 has an interior maximum (at eps = 0 the entropy grows
    monotonically); an entropy is a result only if its alpha is not in
    `unconverged`.
    """
    if eps_over_delta <= 0.0:
        raise DomainError("find_alpha_max requires eps_over_delta > 0")

    records: dict[float, ObservableRecord] = {}

    def f(alpha: float) -> float:
        key = round(alpha, 12)
        if key not in records:
            p = SpinBosonPoint(key, eps_over_delta, delta_ratio)
            records[key] = run_point(p, cfg)
        return records[key].entropy

    scan = (0.0, *ALPHA_MAX_GRID)
    i_max = int(np.argmax([0.0, *(f(a) for a in ALPHA_MAX_GRID)]))
    if i_max == len(scan) - 1:
        raise DomainError(
            f"no interior maximum found: the entropy is still rising at alpha = {scan[-1]}"
        )

    a, b = scan[i_max - 1], scan[i_max + 1]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    while b - a > 2.0 * ALPHA_MAX_TOL:
        if f(c) >= f(d):
            b, d = d, c
            c = b - _GOLDEN * (b - a)
        else:
            a, c = c, d
            d = a + _GOLDEN * (b - a)

    alpha_m = round(0.5 * (a + b), 12)
    entropy_max = f(alpha_m)
    ordered = sorted(records.items())
    return AlphaMaxResult(
        alpha_m=alpha_m,
        entropy_max=entropy_max,
        n_evaluations=len(records),
        evaluations=dict(ordered),
        unconverged=tuple(alpha for alpha, r in ordered if not r.converged),
    )


@dataclass(frozen=True)
class SweepSpec:
    """Grid axes; every grid point must satisfy the input invariants."""

    alpha: tuple[float, ...]
    eps_over_delta: tuple[float, ...]
    delta_ratio: tuple[float, ...]

    def points(self) -> list[SpinBosonPoint]:
        if not (self.alpha and self.eps_over_delta and self.delta_ratio):
            raise DomainError("sweep axes must all be non-empty")
        return [
            SpinBosonPoint(alpha=a, epsilon=e, delta_ratio=d)
            for d in self.delta_ratio
            for e in self.eps_over_delta
            for a in self.alpha
        ]


def _evaluate_point(args: tuple[SpinBosonPoint, NRGConfig]) -> ObservableRecord:
    p, cfg = args
    try:
        return run_point(p, cfg)
    except Exception as exc:  # failure recorded per row, sweep continues
        return _record(p, cfg, error=f"{type(exc).__name__}: {exc}")


# the thread-count variables of the BLAS builds numpy ships with or links to
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _process_pool(jobs: int):
    """A process pool whose workers run BLAS single-threaded.

    The sector blocks are small, so BLAS threads in each worker only
    oversubscribe the cores the workers already fill.  BLAS reads its thread
    count when it loads, and a forked worker inherits the parent's, so the
    workers are spawned while BLAS_THREAD_VARS are set to 1; the parent's
    environment is restored when the pool closes.  If the user has set any
    of the variables, all of them are left as they are.
    """
    import multiprocessing
    import os

    user_set = any(v in os.environ for v in BLAS_THREAD_VARS)
    added = () if user_set else BLAS_THREAD_VARS
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(jobs, mp_context=ctx) as pool:
            yield pool
    finally:
        for v in added:
            os.environ.pop(v, None)


def run_sweep(
    spec: SweepSpec,
    cfg: NRGConfig,
    jobs: int = 1,
    progress=None,
) -> list[ObservableRecord]:
    """Evaluate every grid point; with jobs > 1, points run in a process pool
    of min(jobs, usable CPUs, points) workers, and serially when that is 1.

    Pool workers run BLAS single-threaded (see `_process_pool`); they are
    spawned and re-import `__main__`, so a script needs jobs > 1 calls under
    `if __name__ == "__main__":`.  jobs < 1 raises DomainError at once.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    work = [(p, cfg) for p in spec.points()]
    records = []
    with contextlib.ExitStack() as stack:
        mapper, workers = map, min(jobs, engine._usable_cpus(), len(work))
        if workers > 1:
            mapper = stack.enter_context(_process_pool(workers)).map
        for rec in mapper(_evaluate_point, work):
            records.append(rec)
            if progress:
                progress(rec)
    records.sort(key=lambda r: (r.delta_ratio, r.eps_over_delta, r.alpha))
    return records


_ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))

# the delta_ratio ladder and the eps/Delta ladders are representative choices
# made by this package; only the 0.04 anchor is standard
PRESETS = {
    "fig1": SweepSpec(
        alpha=_ALPHA_GRID,
        eps_over_delta=(0.0,),
        delta_ratio=(0.01, 0.04, 0.1),
    ),
    "fig2": SweepSpec(
        alpha=_ALPHA_GRID,
        eps_over_delta=(0.02, 0.1, 0.5),
        delta_ratio=(0.04,),
    ),
    "fig3": SweepSpec(
        alpha=_ALPHA_GRID,
        eps_over_delta=(0.02, 0.1, 0.5, 1.0),
        delta_ratio=(0.04,),
    ),
}


def preset(name: str) -> SweepSpec:
    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _record_row(r: ObservableRecord) -> dict:
    d = asdict(r)
    d["lambda"] = d.pop("lam")
    return d


_CSV_FIELDS = CSV_HEADER.split(",")

# floats of a record; JSON has no NaN, so a non-finite one is written as null
_FLOAT_FIELDS = [f.name for f in fields(ObservableRecord) if f.type == "float"]

OUTPUT_FORMATS = ("csv", "json")


def _json_value(x):
    return None if isinstance(x, float) and not math.isfinite(x) else x


# NRGConfig fields under their output names
CONFIG_FIELDS = {"lambda" if f.name == "lam" else f.name: f for f in fields(NRGConfig)}


def _metadata(cfg: NRGConfig | None, note=None) -> dict:
    """The JSON metadata block: how the results were produced."""
    meta = {
        "solver": "spinboson-nrg",
        "version": __version__,
        "units": "energies in half-bandwidth units D0 = 1, cutoff wc = 2",
        "sign_convention": SIGN_CONVENTION_NOTE,
    }
    if cfg is not None:
        meta["config"] = {k: getattr(cfg, f.name) for k, f in CONFIG_FIELDS.items()}
    if note:
        meta["note"] = note
    return meta


def write_output(records, fmt: str, stream, cfg: NRGConfig | None = None, note=None):
    """Serialize records; CSV is header + rows, JSON adds a metadata block."""
    if fmt not in OUTPUT_FORMATS:
        raise DomainError(f"unsupported format {fmt!r}; choose from {OUTPUT_FORMATS}")
    if fmt == "csv":
        stream.write(CSV_HEADER + "\n")
        for r in records:
            row = _record_row(r)
            stream.write(",".join(_fmt(row[f]) for f in _CSV_FIELDS) + "\n")
    else:
        rows = [{k: _json_value(v) for k, v in _record_row(r).items()} for r in records]
        payload = {"metadata": _metadata(cfg, note), "records": rows}
        json.dump(payload, stream, indent=2, allow_nan=False)
        stream.write("\n")


def read_json_records(path: str) -> list[ObservableRecord]:
    """Inverse of the JSON writer; floats round-trip bit-exactly, null as NaN."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    records = []
    for row in payload["records"]:
        row = dict(row)
        row["lam"] = row.pop("lambda")
        for name in _FLOAT_FIELDS:
            if row[name] is None:
                row[name] = math.nan
        records.append(ObservableRecord(**row))
    return records


@dataclass
class VerifyCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class VerifyReport:
    passed: bool
    checks: list[VerifyCheck] = field(default_factory=list)


def _check_chain(lam: float) -> VerifyCheck:
    # xi saturates to 1.0 exactly in float64 at large n, so strictness is
    # only required before saturation
    chain = build_chain(lam, 60)
    ok = bool(
        np.all(chain.xi > 0)
        and np.all(chain.xi <= 1)
        and np.all(np.diff(chain.xi) >= 0)
        and np.all(np.diff(chain.xi[:10]) > 0)
        and np.all(np.diff(chain.hop) < 0)
    )
    tri = np.diag(chain.hop[:40], 1)
    tri = tri + tri.T
    w = np.linalg.eigvalsh(tri)
    sym = float(np.max(np.abs(w + w[::-1])))
    ok = ok and sym < 1e-12
    return VerifyCheck(
        "wilson-chain invariants", ok, f"spectrum asymmetry {sym:.2e}"
    )


_VERIFY_COUPLINGS = (
    (KondoParams(rho0_jperp=0.04, rho0_jpar=1.2732395447351628, field=0.0), 3),
    (KondoParams(rho0_jperp=0.1, rho0_jpar=0.6, field=0.05), 3),
    (KondoParams(rho0_jperp=0.05, rho0_jpar=2.5, field=0.12), 4),
)


def _check_oracle(lam: float) -> VerifyCheck:
    cmps = [
        (sites, compare_with_nrg(k, build_chain(lam, sites), sites))
        for k, sites in _VERIFY_COUPLINGS
    ]
    worst = np.max([(c.max_eigenvalue_dev, c.sx_dev, c.sz_dev) for _, c in cmps])
    failed = [sites for sites, c in cmps if not c.passed]
    detail = f"max deviation {worst:.2e}" + (f", failed at sites={failed}" if failed else "")
    return VerifyCheck("oracle equivalence", not failed, detail)


def _check_hellmann_feynman(lam: float) -> VerifyCheck:
    worst = np.max([
        hellmann_feynman_check(k, build_chain(lam, sites), sites).residual
        for k, sites in _VERIFY_COUPLINGS[:2]
    ])
    return VerifyCheck(
        "hellmann-feynman residual", bool(worst < 1e-6), f"max residual {worst:.2e}"
    )


def _check_entropy() -> VerifyCheck:
    rng = np.random.default_rng(7)
    devs = []
    for _ in range(200):
        sx, sz = rng.uniform(-1, 1, 2)
        if sx * sx + sz * sz > 1.0:
            continue
        p_plus, p_minus, e_closed = entanglement_entropy(float(sx), float(sz))
        rho = 0.5 * np.array([[1.0 + sz, sx], [sx, 1.0 - sz]])
        w = np.linalg.eigvalsh(rho)  # ascending
        e_direct = -sum(p * math.log2(p) for p in w if p > 0.0)
        devs += [abs(e_closed - e_direct), abs(w[1] - p_plus)]
    worst = np.max(devs)
    return VerifyCheck(
        "entropy closed form vs 2x2 density matrix",
        bool(worst < 1e-12),
        f"max dev {worst:.2e}",
    )


def verify(lam: float = NRGConfig.lam) -> VerifyReport:
    """Oracle equivalence, energy-derivative and invariant suites; they solve
    short chains untruncated, so lambda is the only setting they read."""
    checks = [
        _check_chain(lam),
        _check_oracle(lam),
        _check_hellmann_feynman(lam),
        _check_entropy(),
    ]
    return VerifyReport(passed=all(c.passed for c in checks), checks=checks)
