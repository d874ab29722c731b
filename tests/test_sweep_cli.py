import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spinboson_nrg.cli as cli_mod
import spinboson_nrg.engine as engine_mod
import spinboson_nrg.oracle as oracle_mod
import spinboson_nrg.sweep as sweep_mod
from spinboson_nrg import (
    AlphaMaxResult,
    DomainError,
    NRGConfig,
    SpinBosonPoint,
    SweepSpec,
    preset,
    read_json_records,
    renormalized_tunneling,
    run_point,
    run_sweep,
    verify,
    write_output,
)
from spinboson_nrg.cli import MAX_VALUES, CLIError, main, parse_axis
from spinboson_nrg.oracle import HFCheck
from spinboson_nrg.sweep import CSV_HEADER

from dense_hamiltonian import nan_level

FAST = NRGConfig(n_keep=80, n_max=60)
POINT = SpinBosonPoint(alpha=0.3, epsilon=0.0, delta_ratio=0.04)


@pytest.fixture(scope="module")
def sample_record():
    return run_point(POINT, FAST)


def write_json(records, path, cfg, note=None):
    with open(path, "w", encoding="utf-8") as fh:
        write_output(records, "json", fh, cfg, note)


class TestRunPoint:
    def test_mapping_warning_names_the_callers_line(self):
        # outside the longitudinal sector: rho0 J_perp = 0.1 > rho0 J_par; with
        # it comes the warning that n_max = 2 lies below the depth N*, and the
        # inner check passes the mapping warning on to the outer one
        with pytest.warns(UserWarning, match="longitudinal"):
            with pytest.warns(UserWarning, match=r"N\*") as caught:
                run_point(SpinBosonPoint(0.95, 0.0, 0.1), NRGConfig(n_max=2))
        assert [w.filename for w in caught] == [__file__, __file__]
        assert sum("N*=" in str(w.message) for w in caught) == 1

    def test_deterministic(self, sample_record):
        again = run_point(POINT, FAST)
        assert again == sample_record

    def test_record_consistency(self, sample_record):
        r = sample_record
        assert r.sy == 0.0
        assert r.p_plus + r.p_minus == pytest.approx(1.0, abs=1e-15)
        assert r.p_plus == pytest.approx((1 + r.norm) / 2, abs=1e-12)
        assert 0.0 <= r.entropy <= 1.0
        assert r.norm <= 1.0 + 1e-8
        assert r.lam == FAST.lam and r.n_keep == FAST.n_keep
        assert r.delta_r == renormalized_tunneling(POINT)

    @pytest.mark.filterwarnings("ignore:.*longitudinal.*:UserWarning")
    @pytest.mark.filterwarnings("ignore:n_max=.*:UserWarning")
    def test_delta_r_is_the_points_own(self):
        # Delta_r of the row's own alpha and Delta/wc, bit for bit: no run
        # maps its couplings back to a point
        cfg = NRGConfig(n_keep=16, n_max=2)
        for ratio in (0.01, 0.04, 0.1):
            for alpha in np.linspace(0.05, 0.95, 19):
                p = SpinBosonPoint(alpha=float(alpha), epsilon=0.0, delta_ratio=ratio)
                assert run_point(p, cfg).delta_r == renormalized_tunneling(p), p

    def test_symmetric_point_band(self, sample_record):
        r = sample_record
        assert r.sz == 0.0  # S_z is odd under the zero-field spin flip
        assert 0.0 < r.sx < 1.0
        assert 0.0 < r.entropy < 1.0


class TestRunSweep:
    def test_rows_sorted_and_complete(self):
        spec = SweepSpec(
            alpha=(0.4, 0.2), eps_over_delta=(0.0,), delta_ratio=(0.1, 0.04)
        )
        records = run_sweep(spec, FAST)
        keys = [(r.delta_ratio, r.eps_over_delta, r.alpha) for r in records]
        assert keys == sorted(keys)
        assert len(records) == 4

    def test_parallel_matches_serial(self):
        spec = SweepSpec(alpha=(0.2, 0.4), eps_over_delta=(0.0,), delta_ratio=(0.04,))
        serial = run_sweep(spec, FAST, jobs=1)
        parallel = run_sweep(spec, FAST, jobs=2)
        assert serial == parallel

    def test_empty_axis_rejected(self):
        spec = SweepSpec(alpha=(), eps_over_delta=(0.0,), delta_ratio=(0.04,))
        with pytest.raises(DomainError, match="non-empty"):
            run_sweep(spec, FAST)

    def test_invalid_grid_point_rejected_upfront(self):
        spec = SweepSpec(alpha=(0.5, 1.5), eps_over_delta=(0.0,), delta_ratio=(0.04,))
        with pytest.raises(DomainError):
            run_sweep(spec, FAST)

    def test_partial_failure_recorded(self, monkeypatch):
        calls = {}

        def boom(p, cfg):
            if p.alpha == 0.4:
                raise RuntimeError("synthetic failure")
            calls[p.alpha] = True
            return run_point(p, cfg)

        monkeypatch.setattr(sweep_mod, "run_point", boom)
        spec = SweepSpec(alpha=(0.2, 0.4), eps_over_delta=(0.0,), delta_ratio=(0.04,))
        records = run_sweep(spec, FAST)
        assert len(records) == 2
        failed = [r for r in records if r.error]
        assert len(failed) == 1
        assert "synthetic failure" in failed[0].error
        assert not failed[0].converged

    @pytest.mark.parametrize(
        "jobs, cpus, workers", [(1000, 3, 3), (2, 3, 2), (4, 1, None), (8, 8, 3)]
    )
    def test_workers_capped_at_usable_cpus(self, jobs, cpus, workers, monkeypatch):
        # no process starts: the executor maps in this process, and every
        # point is a stub record; three points need no more than three workers
        given = []

        class Executor:
            def __init__(self, max_workers, mp_context=None):
                given.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(sweep_mod.concurrent.futures, "ProcessPoolExecutor", Executor)
        monkeypatch.setattr(engine_mod, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sweep_mod, "run_point", lambda p, cfg: sweep_mod._record(p, cfg))
        spec = SweepSpec(alpha=(0.2, 0.4, 0.6), eps_over_delta=(0.0,), delta_ratio=(0.04,))
        records = run_sweep(spec, FAST, jobs=jobs)
        assert [r.alpha for r in records] == [0.2, 0.4, 0.6]
        assert given == ([] if workers is None else [workers])  # one CPU: serial


def _blas_threads_probe(_):
    """A pool worker's BLAS thread variables, the live OpenBLAS count, and
    whether `run` would diagonalize serially there.

    The count is read from the OpenBLAS that numpy wheels bundle; it is None
    where that library is not found.
    """
    settings = tuple(os.getenv(v) for v in sweep_mod.BLAS_THREAD_VARS)
    blas = engine_mod._openblas()
    with engine_mod._block_mapper() as mapper:
        serial = mapper is map
    return settings, None if blas is None else blas[0](), serial


class TestThreadPolicy:
    def test_pool_workers_run_blas_single_threaded(self, monkeypatch):
        for v in sweep_mod.BLAS_THREAD_VARS:
            monkeypatch.delenv(v, raising=False)
        with sweep_mod._process_pool(2) as pool:
            reports = list(pool.map(_blas_threads_probe, range(2)))
        for settings, count, serial in reports:
            assert settings == ("1",) * len(sweep_mod.BLAS_THREAD_VARS)
            assert count in (None, 1)
            assert serial  # the worker processes fill the cores already
        # the parent's environment is restored
        assert not any(v in os.environ for v in sweep_mod.BLAS_THREAD_VARS)

    def test_user_thread_setting_is_kept(self, monkeypatch):
        for v in sweep_mod.BLAS_THREAD_VARS:
            monkeypatch.delenv(v, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        with sweep_mod._process_pool(1) as pool:
            [(settings, _, _)] = pool.map(_blas_threads_probe, range(1))
        expected = tuple(
            "2" if v == "OMP_NUM_THREADS" else None for v in sweep_mod.BLAS_THREAD_VARS
        )
        assert settings == expected


class TestPresets:
    def test_fig1_grid(self):
        spec = preset("fig1")
        assert spec.eps_over_delta == (0.0,)
        assert spec.delta_ratio == (0.01, 0.04, 0.1)
        assert len(spec.alpha) == 19
        assert spec.alpha[0] == 0.05 and spec.alpha[-1] == 0.95
        assert len(spec.points()) == 57

    def test_fig2_grid(self):
        spec = preset("fig2")
        assert spec.delta_ratio == (0.04,)
        assert spec.eps_over_delta == (0.02, 0.1, 0.5)

    def test_fig3_grid(self):
        spec = preset("fig3")
        assert spec.delta_ratio == (0.04,)
        assert 1.0 in spec.eps_over_delta

    def test_unknown_preset(self):
        with pytest.raises(DomainError, match="unknown preset"):
            preset("fig9")


class TestOutput:
    def test_csv_two_lines_for_one_record(self, sample_record):
        buf = io.StringIO()
        write_output([sample_record], "csv", buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_HEADER.split(","))
        assert cells[0] == "0.3"
        assert cells[6] == "true"
        assert cells[8] == "0"  # sz at zero field, never "-0" or roundoff

    def test_csv_twelve_significant_digits(self, sample_record):
        buf = io.StringIO()
        write_output([sample_record], "csv", buf)
        row = buf.getvalue().splitlines()[1].split(",")
        sx_cell = row[7]
        assert float(sx_cell) == pytest.approx(sample_record.sx, rel=1e-11)
        assert len(sx_cell.replace("-", "").replace(".", "").lstrip("0")) <= 13

    def test_unknown_format_rejected(self, sample_record):
        buf = io.StringIO()
        with pytest.raises(DomainError, match="unsupported format 'xml'"):
            write_output([sample_record], "xml", buf)
        assert buf.getvalue() == ""

    def test_json_round_trip_bit_exact(self, sample_record, tmp_path):
        path = tmp_path / "records.json"
        write_json([sample_record], path, FAST)
        back = read_json_records(str(path))
        assert back == [sample_record]

    def test_json_failed_row_is_strict(self, tmp_path, monkeypatch):
        def boom(p, cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweep_mod, "run_point", boom)
        spec = SweepSpec(alpha=(0.3,), eps_over_delta=(0.0,), delta_ratio=(0.04,))
        failed = run_sweep(spec, FAST)
        path = tmp_path / "failed.json"
        write_json(failed, path, FAST)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        row = json.loads(path.read_text(), parse_constant=reject)["records"][0]
        assert row["sx"] is None and row["delta_r"] is None
        (back,) = read_json_records(str(path))
        assert math.isnan(back.sx) and math.isnan(back.delta_r)
        assert repr(back) == repr(failed[0])

    def test_json_metadata_block(self, sample_record, tmp_path):
        path = tmp_path / "records.json"
        write_json([sample_record], path, FAST, note="hello")
        payload = json.loads(path.read_text())
        meta = payload["metadata"]
        assert meta["config"]["lambda"] == FAST.lam
        assert meta["config"]["n_keep"] == FAST.n_keep
        assert "eta" not in meta["config"]  # a fixed engine constant
        assert "sign_convention" in meta
        assert meta["note"] == "hello"
        assert payload["records"][0]["lambda"] == FAST.lam


class TestVerify:
    def test_fresh_build_passes(self):
        report = verify()
        assert report.passed, [c for c in report.checks if not c.passed]
        # all([]) holds, so a check that drops out must show here
        assert [c.name for c in report.checks] == [
            "wilson-chain invariants",
            "oracle equivalence",
            "hellmann-feynman residual",
            "entropy closed form vs 2x2 density matrix",
        ]

    def test_lambda_15_passes(self):
        report = verify(1.5)
        assert report.passed

    def test_report_serializes_as_json(self):
        # every verdict is a Python bool, so the report is plain JSON
        report = verify()
        assert all(type(c.passed) is bool for c in report.checks)
        payload = json.loads(json.dumps(dataclasses.asdict(report)))
        assert payload["passed"] is True
        assert len(payload["checks"]) == len(report.checks)

    def test_sabotaged_sign_rule_fails(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_block_parity_sign", lambda q, n: 1.0)
        report = verify()
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "oracle equivalence" in failed

    def test_nan_level_fails_oracle(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "_at_depth", nan_level(oracle_mod._at_depth))
        check = sweep_mod._check_oracle(2.0)
        assert not check.passed
        assert check.detail == "max deviation nan, failed at sites=[3, 3, 4]"

    def test_nan_residual_fails(self, monkeypatch):
        nan_hf = HFCheck(residual=math.nan, derivative=math.nan, sx_raw=math.nan)
        monkeypatch.setattr(sweep_mod, "hellmann_feynman_check", lambda *a: nan_hf)
        check = sweep_mod._check_hellmann_feynman(2.0)
        assert not check.passed
        assert check.detail == "max residual nan"

    def test_nan_entropy_fails(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "entanglement_entropy", lambda sx, sz: (math.nan,) * 3)
        check = sweep_mod._check_entropy()
        assert not check.passed
        assert check.detail == "max dev nan"


class TestCLIHelpers:
    def test_parse_axis_forms(self):
        assert parse_axis("0.5") == (0.5,)
        assert parse_axis("0.1,0.2,0.3") == (0.1, 0.2, 0.3)
        assert parse_axis("0.1:0.5:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5)

    def test_oversized_range_rejected_before_it_is_built(self, capsys):
        # one value over the bound; the count is checked, no list is built
        over = f"0:{MAX_VALUES}:1"
        with pytest.raises(CLIError, match=f"{MAX_VALUES + 1} values"):
            parse_axis(over)
        assert main(["sweep", "--alpha", over]) == 1
        assert f"{MAX_VALUES + 1} values" in capsys.readouterr().err


class TestCLI:
    def test_point_to_csv_file(self, tmp_path):
        out = tmp_path / "point.csv"
        code = main([
            "point", "--alpha", "0.3", "--delta-ratio", "0.04",
            "--n-keep", "80", "--n-max", "60", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_verbose_prints_one_line_per_row(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main([
            "point", "--alpha", "0.3", "--n-keep", "80", "--n-max", "60",
            "--verbose", "--output", str(out),
        ])
        assert code == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("  alpha=0.3 eps/Delta=0 Delta/wc=0.04: sx=")
        assert line.endswith("converged=True")

    def test_settings_per_command(self):
        # every settable value is an argparse destination besides "command"
        solver = {"lambda", "n_keep", "n_max", "paper_fidelity"}
        grid = solver | {"jobs", "verbose", "format", "output"}
        for argv, expected in (
            (["sweep", "--alpha", "0.3"],
             grid | {"alpha", "eps_over_delta", "delta_ratio"}),
            (["preset", "fig1"], grid | {"name"}),
            (["alpha-max", "--eps-over-delta", "0.1"],
             solver | {"eps_over_delta", "delta_ratio", "output"}),
            (["verify"], {"lambda"}),
        ):
            dests = set(vars(cli_mod.build_parser().parse_args(argv))) - {"command"}
            assert dests == expected, argv

    def test_paper_fidelity_flag_precedence(self, tmp_path):
        out = tmp_path / "p.json"
        code = main([
            "point", "--alpha", "0.3", "--paper-fidelity", "--lambda", "2.0",
            "--n-max", "60", "--format", "json", "--output", str(out),
        ])
        assert code == 0
        cfg = json.loads(out.read_text())["metadata"]["config"]
        assert cfg["lambda"] == 2.0      # explicit flag beats the bundle
        assert cfg["n_keep"] == 1200     # bundle beats the default

    def test_domain_error_exit_code(self, capsys):
        assert main(["point", "--alpha", "1.2"]) == 1
        assert "dissipation sector" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--eps-over-delta", "nan"), ("--eps-over-delta", "inf"),
         ("--lambda", "inf"), ("--lambda", "nan")],
    )
    def test_non_finite_input_exit_code(self, flag, value, capsys):
        assert main(["point", "--alpha", "0.5", flag, value]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("axis", ["abc", "0.1:x:0.1", "0.1:inf:0.1"])
    def test_non_numeric_axis_exit_code(self, axis, capsys):
        assert main(["sweep", "--alpha", axis]) == 1
        assert capsys.readouterr().err.startswith("error: bad axis")

    @pytest.mark.parametrize(
        "axis, message",
        [("0:1", "range must be start:stop:step, got '0:1'"),
         ("0.1:0.5:0", "range step must be positive")],
    )
    def test_malformed_range_exit_code(self, axis, message, capsys):
        assert main(["sweep", "--alpha", axis]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_positive_jobs_exit_code(self, capsys, monkeypatch):
        solved = []

        def solve(p, cfg):
            solved.append(p)
            raise RuntimeError("a point was solved")

        monkeypatch.setattr(sweep_mod, "run_point", solve)
        # before any point is solved
        for extra in (["--jobs", "0"], ["--jobs", "-2"]):
            assert main(["point", "--alpha", "0.5", *extra]) == 1
            assert capsys.readouterr().err.startswith("error: jobs must be >= 1")
        assert solved == []

    def test_oversized_grid_exit_code(self, capsys, monkeypatch):
        def solve(p, cfg):
            pytest.fail("a point was solved")  # not an Exception: no row catches it

        monkeypatch.setattr(sweep_mod, "run_point", solve)
        # 999 x 1002 valid points, just over the bound; each axis is under it
        argv = ["sweep", "--alpha", "0.001:0.999:0.001",
                "--eps-over-delta", "0:1.001:0.001"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: the grid has 1000998 points, more than {MAX_VALUES}\n"
        )

    def test_usage_error_exit_code(self, capsys):
        assert main(["point"]) == 1  # --alpha is required
        assert main(["frobnicate"]) == 1
        # a flag the command does not read, or a removed one, is not accepted
        for argv in (["verify", "--n-keep", "80"], ["verify", "--n-max", "60"],
                     ["verify", "--paper-fidelity"], ["verify", "--verbose"],
                     ["alpha-max", "--eps-over-delta", "0.1", "--verbose"],
                     ["point", "--alpha", "0.3", "--config", "c.conf"],
                     ["verify", "--config", "c.conf"]):
            capsys.readouterr()
            assert main(argv) == 1, argv
            assert "unrecognized arguments" in capsys.readouterr().err, argv

    def test_io_error_exit_code(self, tmp_path, monkeypatch):
        # an unwritable output fails before anything is solved
        def never(*args, **kwargs):
            raise AssertionError("solved before the output was opened")

        monkeypatch.setattr(cli_mod, "run_sweep", never)
        monkeypatch.setattr(cli_mod, "find_alpha_max", never)
        missing = tmp_path / "nonexistent-dir"
        code = main([
            "point", "--alpha", "0.3", "--n-keep", "80", "--n-max", "60",
            "--output", str(missing / "x.csv"),
        ])
        assert code == 3
        code = main([
            "alpha-max", "--eps-over-delta", "0.1", "--output", str(missing / "x.json"),
        ])
        assert code == 3

    def test_failed_solve_leaves_output_as_it_was(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise DomainError("no result")

        monkeypatch.setattr(cli_mod, "run_sweep", failing)
        monkeypatch.setattr(cli_mod, "find_alpha_max", failing)
        out, new = tmp_path / "x.out", tmp_path / "new.out"
        out.write_text("earlier results\n")
        for command in (["point", "--alpha", "0.3"],
                        ["alpha-max", "--eps-over-delta", "0.1"]):
            assert main([*command, "--output", str(out)]) == 1, command
            assert out.read_text() == "earlier results\n"
            assert main([*command, "--output", str(new)]) == 1, command
            assert not new.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command",
        [["sweep", "--alpha", "0.2,0.4"], ["point", "--alpha", "0.3"], ["preset", "fig2"]],
    )
    def test_stdout_and_file_outputs_are_equal(
        self, command, fmt, tmp_path, monkeypatch, capsys
    ):
        def fake_sweep(spec, cfg, jobs=1, progress=None):
            return [sweep_mod._record(p, cfg, n_m=5, converged=True, sx=0.5, sz=0.1)
                    for p in spec.points()]

        monkeypatch.setattr(cli_mod, "run_sweep", fake_sweep)
        out = tmp_path / "rows.out"
        argv = [*command, "--format", fmt]
        assert main([*argv, "--output", str(out)]) == 0
        capsys.readouterr()
        for to_stdout in (["--output", "-"], []):  # '-' and no --output alike
            assert main([*argv, *to_stdout]) == 0
            assert capsys.readouterr().out.encode() == out.read_bytes()
        assert not (tmp_path / "-").exists()

    def test_verify_exit_codes(self, monkeypatch):
        assert main(["verify"]) == 0
        assert main(["verify", "--lambda", "1.5"]) == 0
        assert main(["verify", "--lambda", "1.0"]) == 1
        monkeypatch.setattr(engine_mod, "_block_parity_sign", lambda q, n: 1.0)
        assert main(["verify"]) == 2

    def test_alpha_max_validation(self):
        assert main(["alpha-max", "--eps-over-delta", "-0.5"]) == 1

    @pytest.fixture
    def alpha_max_calls(self, monkeypatch):
        calls = []

        def fake(eps_over_delta, delta_ratio, cfg):
            calls.append((eps_over_delta, delta_ratio, cfg))
            entropies = {0.3: 0.8, 0.42: 0.9, 0.5: 0.85}
            records = {
                a: sweep_mod._record(SpinBosonPoint(a, 0.1, 0.04), cfg, entropy=e)
                for a, e in entropies.items()
            }
            return AlphaMaxResult(0.42, 0.9, 3, records, ())

        monkeypatch.setattr(cli_mod, "find_alpha_max", fake)
        return calls

    def test_alpha_max_output(self, tmp_path, alpha_max_calls):
        out = tmp_path / "amax.json"
        code = main(["alpha-max", "--eps-over-delta", "0.1", "--n-keep", "80",
                     "--output", str(out)])
        assert code == 0
        assert alpha_max_calls == [(0.1, 0.04, NRGConfig(n_keep=80))]
        # the metadata block of sweep JSON, then the fields of AlphaMaxResult
        payload = json.loads(out.read_text())
        assert list(payload["metadata"]) == [
            "solver", "version", "units", "sign_convention", "config"
        ]
        assert payload["metadata"]["config"] == {"lambda": 2.0, "n_keep": 80, "n_max": 300}
        assert list(payload.items())[1:] == [
            ("alpha_m", 0.42),
            ("entropy_max", 0.9),
            ("n_evaluations", 3),
            ("evaluations", {"0.3": 0.8, "0.42": 0.9, "0.5": 0.85}),
            ("unconverged", []),
        ]

    def test_alpha_max_output_to_stdout(
        self, tmp_path, monkeypatch, capsys, alpha_max_calls
    ):
        # '-' prints the JSON in place of the summary lines, and writes no file
        monkeypatch.chdir(tmp_path)
        argv = ["alpha-max", "--eps-over-delta", "0.1", "--output"]
        assert main([*argv, "amax.json"]) == 0
        capsys.readouterr()
        assert main([*argv, "-"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == json.loads((tmp_path / "amax.json").read_text())
        assert out.encode() == (tmp_path / "amax.json").read_bytes()
        assert out.endswith("}\n")
        assert not (tmp_path / "-").exists()

    def test_alpha_max_unconverged_evaluation_exit_code(self, monkeypatch, capsys):
        def fake_point(p, cfg):
            # a quadratic entropy profile; only alpha = 0.5 fails to converge
            entropy = 1.0 - (p.alpha - 0.37) ** 2
            return sweep_mod._record(
                p, cfg, n_m=5, converged=p.alpha != 0.5, sx=0.5, sz=0.1, norm=0.51,
                entropy=entropy, p_plus=0.755, p_minus=0.245, delta_r=1e-3,
            )

        monkeypatch.setattr(sweep_mod, "run_point", fake_point)
        code = main(["alpha-max", "--eps-over-delta", "0.1"])
        assert code == cli_mod.EXIT_ROWS == 4
        out, err = capsys.readouterr()
        alpha_line, _, count_line = out.splitlines()  # the alpha_M lines come first
        assert abs(float(alpha_line.split("=")[1]) - 0.37) <= 0.01
        n_evaluations = int(count_line.split(":")[1])
        assert err.strip().splitlines() == [
            f"warning: of {n_evaluations} evaluations, 1 did not converge"
        ]

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--alpha", "0.2,0.4,0.6"],
            ["preset", "fig1"],
            ["point", "--alpha", "0.2,0.4,0.6"],
        ],
    )
    def test_failed_or_unconverged_rows_exit_code(
        self, command, tmp_path, monkeypatch, capsys
    ):
        def failing(p, cfg):
            raise RuntimeError("synthetic failure")

        def fake_sweep(spec, cfg, jobs=1, progress=None):
            # one converged row, one unconverged row and one failed row
            a, b, c = spec.points()[:3]
            results = dict(sx=0.5, sz=0.0, norm=0.5, entropy=0.8, p_plus=0.75,
                           p_minus=0.25, delta_r=1e-3)
            return [
                sweep_mod._record(a, cfg, n_m=5, converged=True, **results),
                sweep_mod._record(b, cfg, n_m=5, converged=False, **results),
                sweep_mod._evaluate_point((c, cfg)),
            ]

        monkeypatch.setattr(sweep_mod, "run_point", failing)
        monkeypatch.setattr(cli_mod, "run_sweep", fake_sweep)
        out = tmp_path / "rows.csv"
        assert main([*command, "--output", str(out)]) == cli_mod.EXIT_ROWS == 4
        assert len(out.read_text().splitlines()) == 4  # every row is still written
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["warning: of 3 rows, 1 failed and 1 did not converge"]

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "cli.csv"
        env = dict(os.environ)
        proc = subprocess.run(
            [sys.executable, "-m", "spinboson_nrg", "point", "--alpha", "0.3",
             "--n-keep", "80", "--n-max", "60", "--output", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_module_entry_point_warnings_name_a_package_file(self):
        # the first frame outside the package is runpy's; the warnings name
        # the package's __main__ instead
        proc = subprocess.run(
            [sys.executable, "-m", "spinboson_nrg", "point", "--alpha", "0.95",
             "--delta-ratio", "0.1", "--n-max", "20"],
            capture_output=True, text=True, env=dict(os.environ),
        )
        assert proc.returncode == cli_mod.EXIT_ROWS
        lines = [ln for ln in proc.stderr.splitlines() if "UserWarning" in ln]
        assert len(lines) == 2  # the N* and the coupling-map warnings
        package = os.path.dirname(sweep_mod.__file__) + os.sep
        assert all(ln.startswith(package) for ln in lines)
        assert "<frozen" not in proc.stderr

    def test_sweep_csv_ordering(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--alpha", "0.4,0.2", "--delta-ratio", "0.04",
            "--n-keep", "80", "--n-max", "60", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        alphas = [float(l.split(",")[0]) for l in lines[1:]]
        assert alphas == sorted(alphas)
