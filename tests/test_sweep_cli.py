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
    write_output_path,
)
from spinboson_nrg.cli import main, parse_axis, read_config_file
from spinboson_nrg.sweep import CSV_HEADER

FAST = NRGConfig(n_keep=80, n_max=60)
POINT = SpinBosonPoint(alpha=0.3, epsilon=0.0, delta_ratio=0.04)


@pytest.fixture(scope="module")
def sample_record():
    return run_point(POINT, FAST)


class TestRunPoint:
    def test_mapping_warning_names_the_callers_line(self):
        # outside the longitudinal sector: rho0 J_perp = 0.1 > rho0 J_par
        with pytest.warns(UserWarning, match="longitudinal") as caught:
            run_point(SpinBosonPoint(0.95, 0.0, 0.1), NRGConfig(n_max=2))
        # with it comes the warning that n_max = 2 lies below the depth N*
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
        assert abs(r.sz) < 1e-6
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


def _blas_threads_probe(_):
    """A pool worker's BLAS thread variables, the live OpenBLAS count, and
    whether `run` would diagonalize serially there.

    The count is read from the OpenBLAS that numpy wheels bundle; it is None
    where that library is not found.
    """
    settings = tuple(os.getenv(v) for v in sweep_mod.BLAS_THREAD_VARS)
    blas = engine_mod._openblas()
    with engine_mod._orbit_mapper() as mapper:
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

    def test_csv_twelve_significant_digits(self, sample_record):
        buf = io.StringIO()
        write_output([sample_record], "csv", buf)
        row = buf.getvalue().splitlines()[1].split(",")
        sx_cell = row[7]
        assert float(sx_cell) == pytest.approx(sample_record.sx, rel=1e-11)
        assert len(sx_cell.replace("-", "").replace(".", "").lstrip("0")) <= 13

    def test_json_round_trip_bit_exact(self, sample_record, tmp_path):
        path = tmp_path / "records.json"
        write_output_path([sample_record], "json", str(path), FAST)
        back = read_json_records(str(path))
        assert back == [sample_record]

    def test_json_failed_row_is_strict(self, tmp_path, monkeypatch):
        def boom(p, cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweep_mod, "run_point", boom)
        spec = SweepSpec(alpha=(0.3,), eps_over_delta=(0.0,), delta_ratio=(0.04,))
        failed = run_sweep(spec, FAST)
        path = tmp_path / "failed.json"
        write_output_path(failed, "json", str(path), FAST)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        row = json.loads(path.read_text(), parse_constant=reject)["records"][0]
        assert row["sx"] is None and row["delta_r"] is None
        (back,) = read_json_records(str(path))
        assert math.isnan(back.sx) and math.isnan(back.delta_r)
        assert repr(back) == repr(failed[0])

    def test_json_metadata_block(self, sample_record, tmp_path):
        path = tmp_path / "records.json"
        write_output_path([sample_record], "json", str(path), FAST, note="hello")
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
        report = verify(NRGConfig())
        assert report.passed, [c for c in report.checks if not c.passed]

    def test_lambda_15_passes(self):
        report = verify(NRGConfig(lam=1.5))
        assert report.passed

    def test_sabotaged_sign_rule_fails(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_block_parity_sign", lambda q, n: 1.0)
        report = verify(NRGConfig())
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "oracle equivalence" in failed


class TestCLIHelpers:
    def test_parse_axis_forms(self):
        assert parse_axis("0.5") == (0.5,)
        assert parse_axis("0.1,0.2,0.3") == (0.1, 0.2, 0.3)
        assert parse_axis("0.1:0.5:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5)

    def test_config_file(self, tmp_path):
        path = tmp_path / "solver.conf"
        path.write_text("n_keep = 64\nlambda = 2.5  # coarse\n\nn_max = 40\n")
        values = read_config_file(str(path))
        assert values == {"n_keep": 64, "lambda": 2.5, "n_max": 40}

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "solver.conf"
        from spinboson_nrg.cli import CLIError

        # a bad key, a malformed number and an unsupported output format all
        # fail at read time with the offending line
        for text, message in (
            ("n_kept = 64\n", "unknown key"),
            ("n_max = 40\nn_keep = abc\n", r"solver\.conf:2: bad value for 'n_keep'"),
            ("format = xml\n", r"solver\.conf:1: bad value for 'format'"),
            ("plateau_tol = 1e-6\n", "unknown key"),  # a fixed engine constant
            ("eta = 0.05\n", "unknown key"),  # a fixed engine constant
        ):
            path.write_text(text)
            with pytest.raises(CLIError, match=message):
                read_config_file(str(path))
            assert main(["point", "--alpha", "0.3", "--config", str(path)]) == 1


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

    def test_config_file_flags_win(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("n_keep = 64\nn_max = 60\n")
        out = tmp_path / "p.json"
        code = main([
            "point", "--alpha", "0.3", "--config", str(conf),
            "--n-keep", "80", "--format", "json", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["config"]["n_keep"] == 80  # flag beats file
        assert payload["metadata"]["config"]["n_max"] == 60   # file beats default

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

    def test_usage_error_exit_code(self):
        assert main(["point"]) == 1  # --alpha is required
        assert main(["frobnicate"]) == 1

    def test_io_error_exit_code(self):
        code = main([
            "point", "--alpha", "0.3", "--n-keep", "80", "--n-max", "60",
            "--output", "/nonexistent-dir/x.csv",
        ])
        assert code == 3

    def test_verify_exit_codes(self, monkeypatch):
        assert main(["verify"]) == 0
        monkeypatch.setattr(engine_mod, "_block_parity_sign", lambda q, n: 1.0)
        assert main(["verify"]) == 2

    def test_alpha_max_validation(self):
        assert main(["alpha-max", "--eps-over-delta", "-0.5"]) == 1

    def test_alpha_max_output(self, tmp_path, monkeypatch):
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
        out = tmp_path / "amax.json"
        code = main(["alpha-max", "--eps-over-delta", "0.1", "--n-keep", "80",
                     "--output", str(out)])
        assert code == 0
        assert calls == [(0.1, 0.04, NRGConfig(n_keep=80))]
        # the fields of AlphaMaxResult, in order
        assert list(json.loads(out.read_text()).items()) == [
            ("alpha_m", 0.42),
            ("entropy_max", 0.9),
            ("n_evaluations", 3),
            ("evaluations", {"0.3": 0.8, "0.42": 0.9, "0.5": 0.85}),
            ("unconverged", []),
        ]

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
