"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
The full module takes a few minutes at the fast solver defaults.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import spinboson_nrg.sweep as sweep_mod
from spinboson_nrg import (
    KondoParams,
    NRGConfig,
    SpinBosonPoint,
    add_site,
    build_chain,
    compare_with_nrg,
    entanglement_entropy,
    exact_ground,
    find_alpha_max,
    hellmann_feynman_check,
    init_impurity_site,
    map_to_kondo,
    noninteracting_reference,
    run,
    run_point,
    truncate,
)

ALPHA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
DEFAULTS = NRGConfig()


def _report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion} {status}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def symmetric_grid():
    return {
        a: run_point(SpinBosonPoint(alpha=a, epsilon=0.0, delta_ratio=0.04), DEFAULTS)
        for a in ALPHA_GRID
    }


@pytest.fixture(scope="module")
def asymmetric_grid():
    return {
        a: run_point(SpinBosonPoint(alpha=a, epsilon=0.1, delta_ratio=0.04), DEFAULTS)
        for a in ALPHA_GRID
    }


COUPLING_SETS = (
    map_to_kondo(SpinBosonPoint(alpha=0.5, epsilon=0.0, delta_ratio=0.04)),
    map_to_kondo(SpinBosonPoint(alpha=0.2, epsilon=0.5, delta_ratio=0.1)),
    map_to_kondo(SpinBosonPoint(alpha=0.9, epsilon=1.0, delta_ratio=0.04)),
    KondoParams(rho0_jperp=0.04, rho0_jpar=0.8, field=0.0),
    KondoParams(rho0_jperp=0.3, rho0_jpar=0.5, field=0.2),
    KondoParams(rho0_jperp=0.05, rho0_jpar=2.5, field=0.01),
)


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    n_with_field = 0
    for k in COUPLING_SETS:
        if k.field > 0:
            n_with_field += 1
        for sites in (2, 3, 4, 5):  # 1 to 4 added sites, up to 2048 states
            chain = build_chain(2.0, sites)
            cmp = compare_with_nrg(k, chain, sites)
            worst = max(worst, cmp.max_eigenvalue_dev, cmp.sx_dev, cmp.sz_dev)
    elapsed = time.time() - t0
    _report(
        1,
        worst <= 1e-9 and n_with_field >= 2 and elapsed < 60.0,
        f"untruncated NRG vs ED over {len(COUPLING_SETS)} coupling sets x 4 chain"
        f" lengths: max deviation {worst:.2e} (gate 1e-9), {elapsed:.1f}s",
    )


def test_criterion_2_analytic_anchor():
    k = KondoParams(rho0_jperp=0.04, rho0_jpar=0.8, field=0.0)
    chain = build_chain(2.0, 2)
    ground = exact_ground(k, chain, 1)
    e_dev = abs(ground.e0 - (-k.jpar / 4 - k.jperp / 2))
    hf = hellmann_feynman_check(k, chain, 1, dj=1e-4 * k.jperp)
    _report(
        2,
        e_dev <= 1e-12 and hf.residual < 1e-8,
        f"single-site ground energy dev {e_dev:.2e} (gate 1e-12),"
        f" energy-derivative residual {hf.residual:.2e} (gate 1e-8)",
    )


def test_criterion_3_noninteracting_limit():
    worst = 0.0
    details = []
    for eps in (0.0, 1.0):
        p = SpinBosonPoint(alpha=0.01, epsilon=eps, delta_ratio=0.04)
        ref = noninteracting_reference(p.delta_abs, p.epsilon_abs)
        t0 = time.time()
        rec = run_point(p, DEFAULTS)
        elapsed = time.time() - t0
        dev = max(abs(rec.sx - ref[0]), abs(rec.sz - ref[1]))
        worst = max(worst, dev)
        details.append(f"eps/Delta={eps}: dev {dev:.3f} in {elapsed:.0f}s")
        assert elapsed < 120.0
    _report(3, worst <= 0.05, "; ".join(details) + " (gate 0.05)")


def test_criterion_4_symmetric_monotonicity(symmetric_grid):
    sx = [symmetric_grid[a].sx for a in ALPHA_GRID]
    ent = [symmetric_grid[a].entropy for a in ALPHA_GRID]
    sz_max = max(abs(symmetric_grid[a].sz) for a in ALPHA_GRID)
    sx_decreasing = all(a > b for a, b in zip(sx, sx[1:]))
    ent_increasing = all(a < b for a, b in zip(ent, ent[1:]))
    _report(
        4,
        sx_decreasing and ent_increasing and sz_max <= 1e-6 and ent[-1] >= 0.8,
        f"sx strictly decreasing: {sx_decreasing}, E strictly increasing:"
        f" {ent_increasing}, max |sz| {sz_max:.2e} (gate 1e-6),"
        f" E(0.9)={ent[-1]:.4f} (gate 0.8)",
    )


def _unimodal(values):
    peak = int(np.argmax(values))
    rising = all(a < b for a, b in zip(values[: peak + 1], values[1 : peak + 1]))
    falling = all(a > b for a, b in zip(values[peak:], values[peak + 1 :]))
    return rising and falling, peak


def test_criterion_5_asymmetric_behavior(asymmetric_grid, monkeypatch):
    sx = [asymmetric_grid[a].sx for a in ALPHA_GRID]
    sz = [asymmetric_grid[a].sz for a in ALPHA_GRID]
    ent = [asymmetric_grid[a].entropy for a in ALPHA_GRID]
    sz_increasing = all(a < b for a, b in zip(sz, sz[1:]))
    sx_decreasing = all(a > b for a, b in zip(sx, sx[1:]))
    unimodal, peak = _unimodal(ent)
    interior = 0 < peak < len(ALPHA_GRID) - 1

    def cached_point(p, cfg):
        # the grid points are the fixture's records; refinement points run
        if p.alpha in asymmetric_grid:
            return asymmetric_grid[p.alpha]
        return run_point(p, cfg)

    monkeypatch.setattr(sweep_mod, "run_point", cached_point)
    result = find_alpha_max(0.1, 0.04, DEFAULTS)
    _report(
        5,
        sz_increasing and sz[-1] >= 0.9 and sx_decreasing and unimodal
        and interior and 0.0 < result.alpha_m < 0.9 and not result.unconverged,
        f"sz increasing: {sz_increasing}, sz(0.9)={sz[-1]:.4f} (gate 0.9),"
        f" sx decreasing: {sx_decreasing}, E unimodal: {unimodal},"
        f" alpha_M={result.alpha_m:.3f} refined to 0.01,"
        f" unconverged evaluations: {list(result.unconverged)}",
    )


def test_criterion_6_hellmann_feynman_full_scale():
    p = SpinBosonPoint(alpha=0.5, epsilon=0.0, delta_ratio=0.04)
    k = map_to_kondo(p)
    state, report = run(p, DEFAULTS)
    n_fixed = report.n_m

    def chain_ground_energy(kk):
        chain = build_chain(DEFAULTS.lam, n_fixed)
        st = init_impurity_site(kk)
        for _ in range(n_fixed):
            st = add_site(st, chain)
            st = truncate(st, DEFAULTS.n_keep)
        return st.e0_accumulated

    r = 1e-4
    e_up = chain_ground_energy(replace(k, rho0_jperp=k.rho0_jperp * (1 + r)))
    e_dn = chain_ground_energy(replace(k, rho0_jperp=k.rho0_jperp * (1 - r)))
    derivative = (e_up - e_dn) / (r * k.jperp)  # equals raw <Ox + Ox^dag>
    rel = abs(report.sx - (-derivative)) / abs(report.sx)
    _report(
        6,
        rel <= 0.01,
        f"sx={report.sx:.6f} vs energy derivative {-derivative:.6f}:"
        f" relative deviation {rel * 100:.3f}% (gate 1%)",
    )


def test_criterion_7_convergence_robustness(symmetric_grid):
    cfg_500 = NRGConfig(n_keep=500)
    cfg_15 = NRGConfig(lam=1.5)
    worst_keep = 0.0
    worst_lam_abs = 0.0
    worst_lam_rel = 0.0
    for a in ALPHA_GRID:
        p = SpinBosonPoint(alpha=a, epsilon=0.0, delta_ratio=0.04)
        base = symmetric_grid[a]
        r500 = run_point(p, cfg_500)
        worst_keep = max(
            worst_keep, abs(r500.sx - base.sx), abs(r500.entropy - base.entropy)
        )
        r15 = run_point(p, cfg_15)
        worst_lam_abs = max(worst_lam_abs, abs(r15.sx - base.sx))
        worst_lam_rel = max(worst_lam_rel, abs(r15.sx - base.sx) / abs(base.sx))
    _report(
        7,
        worst_keep <= 1e-3 and worst_lam_abs <= 0.02,
        f"n_keep 300->500 shifts sx/E by at most {worst_keep:.2e} (gate 1e-3);"
        f" lambda 2.0->1.5 shifts sx by at most {worst_lam_abs:.4f}"
        f" (gate 0.02 absolute; relative {worst_lam_rel * 100:.1f}%)",
    )


def test_criterion_8_entropy_unit_tests():
    rng = np.random.default_rng(2718)
    worst = 0.0
    count = 0
    while count < 1000:
        sx, sz = rng.uniform(-1, 1, 2)
        if sx * sx + sz * sz > 1.0:
            continue
        count += 1
        p_plus, p_minus, closed = entanglement_entropy(float(sx), float(sz))
        rho = 0.5 * np.array([[1.0 + sz, sx], [sx, 1.0 - sz]])
        w = np.linalg.eigvalsh(rho)
        direct = -sum(p * math.log2(p) for p in w if p > 0.0)
        worst = max(worst, abs(closed - direct))
    boundary_ok = (
        entanglement_entropy(1.0, 0.0) == (1.0, 0.0, 0.0)
        and entanglement_entropy(0.0, 0.0) == (0.5, 0.5, 1.0)
    )
    _report(
        8,
        worst <= 1e-12 and boundary_ok,
        f"closed form vs direct diagonalization on 1000 points:"
        f" max dev {worst:.2e} (gate 1e-12); boundary cases exact: {boundary_ok}",
    )
