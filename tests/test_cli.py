"""Command-line interface: formats, determinism, exit codes, canary."""

import json
import math

import pytest

from zescat import closedform
from zescat.cli import EXIT_INVALID, EXIT_NUMERIC, EXIT_OK, EXIT_TOLERANCE, main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_valid_invocation(self, capsys):
        code, out, _ = _run(capsys, ["eigenvalues", "-d", "3", "--mu", "1.0",
                                     "--lmax", "2", "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(out)["summary"]["pass"] is True

    def test_invalid_dimension_names_constraint(self, capsys):
        code, _, err = _run(capsys, ["phase-table", "-d", "1", "--mu", "1.0",
                                     "--alpha", "1.0"])
        assert code == EXIT_INVALID
        assert "d" in err and ">= 2" in err

    def test_invalid_mu(self, capsys):
        code, _, err = _run(capsys, ["eigenvalues", "-d", "3", "--mu", "2.5"])
        assert code == EXIT_INVALID
        assert "mu" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = _run(capsys, ["eigenvalues", "-d", "3", "--mu", "1.0",
                                   "--frequency", "7"])
        assert code == EXIT_INVALID

    def test_tolerance_failure_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("dims = 3\nmus = 0.7\ntol_route = 1e-30\n")
        code, out, _ = _run(capsys, ["verify", "--config", str(cfg),
                                     "--format", "json"])
        assert code == EXIT_TOLERANCE
        assert json.loads(out)["summary"]["pass"] is False

    @pytest.mark.parametrize("argv, reason", [
        # the origin seed would need a radius below the double range
        (["phase-table", "-d", "3", "--mu", "1.999999"], "mu too close to 2"),
        # the integrator state overflows before the fit window
        (["verify", "-d", "4", "--mu", "1.0", "--alpha", "1e-300"], "non-finite"),
        # a huge coupling also pushes the seed radius below that range
        (["phase-table", "-d", "3", "--mu", "0.3", "--alpha", "1e250"],
         "alpha too large"),
    ])
    def test_numeric_route_failure_exits_three(self, capsys, recwarn, argv, reason):
        code, out, err = _run(capsys, argv + ["--numeric", "--lmax", "0"])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.count("\n") == 1 and reason in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_byte_identical_output(self, capsys, fmt):
        argv = ["verify", "-d", "3", "--mu", "1.0", "--format", fmt]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    def test_out_file_lf_endings(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = _run(capsys, ["phase-table", "-d", "3", "--mu", "1.0",
                                   "--alpha", "1.0", "--lmax", "3",
                                   "--format", "csv", "--out", str(path)])
        assert code == EXIT_OK
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").endswith("\n")


class TestPhaseTable:
    def test_csv_quarter_pi_row(self, capsys):
        code, out, _ = _run(capsys, ["phase-table", "-d", "2", "--mu", "1.0",
                                     "--alpha", "1.0", "--lmax", "0",
                                     "--format", "csv"])
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        row = lines[1].split(",")
        d_closed = float(row[header.index("D_closed")])
        assert d_closed == pytest.approx(math.pi / 4, abs=1e-12)

    def test_csv_json_round_trip(self, capsys):
        argv = ["phase-table", "-d", "4", "--mu", "0.7", "--alpha", "2.0",
                "--lmax", "4"]
        _, csv_out, _ = _run(capsys, argv + ["--format", "csv"])
        _, json_out, _ = _run(capsys, argv + ["--format", "json"])
        rows = json.loads(json_out)["rows"]
        lines = csv_out.strip().split("\n")
        header = lines[0].split(",")
        for line, row in zip(lines[1:], rows):
            for col, cell in zip(header, line.split(",")):
                if isinstance(row[col], float):
                    # repr round-trip: parsing the CSV cell recovers the value
                    assert float(cell) == row[col]

    def test_numeric_columns_within_tolerance(self, capsys):
        code, out, _ = _run(capsys, ["phase-table", "-d", "2", "--mu", "1.0",
                                     "--alpha", "1.0", "--lmax", "0",
                                     "--numeric", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["abs_dD"] <= 1e-4
        assert row["rel_dC"] <= 1e-4
        assert payload["summary"]["pass"] is True

    def test_degrees_flag_affects_human_only(self, capsys):
        argv = ["phase-table", "-d", "2", "--mu", "1.0", "--alpha", "1.0",
                "--lmax", "0"]
        _, human, _ = _run(capsys, argv + ["--degrees"])
        assert "[deg]" in human
        assert "45" in human  # pi/4 rad
        _, js, _ = _run(capsys, argv + ["--format", "json", "--degrees"])
        assert json.loads(js)["rows"][0]["D_closed"] == pytest.approx(math.pi / 4)


class TestEigenvalues:
    def test_d3_mu1_values(self, capsys):
        _, out, _ = _run(capsys, ["eigenvalues", "-d", "3", "--mu", "1.0",
                                  "--lmax", "3", "--format", "json"])
        rows = json.loads(out)["rows"]
        assert rows[0]["re"] == pytest.approx(0.0, abs=1e-14)
        assert rows[0]["im"] == pytest.approx(-1.0, abs=1e-14)
        assert rows[0]["arg"] == pytest.approx(-math.pi / 2, abs=1e-14)

    def test_d2_l0_is_unity(self, capsys):
        _, out, _ = _run(capsys, ["eigenvalues", "-d", "2", "--mu", "0.4",
                                  "--lmax", "0", "--format", "json"])
        row = json.loads(out)["rows"][0]
        assert (row["re"], row["im"], row["arg"]) == (1.0, 0.0, 0.0)

    def test_arg_decrement_is_constant(self, capsys):
        d, mu = 3, 0.8
        _, out, _ = _run(capsys, ["eigenvalues", "-d", str(d), "--mu", str(mu),
                                  "--lmax", "8", "--format", "json"])
        rows = json.loads(out)["rows"]
        step = math.pi * mu / (2.0 - mu)
        for a, b in zip(rows, rows[1:]):
            diff = math.remainder(a["arg"] - b["arg"] - step, 2.0 * math.pi)
            assert abs(diff) <= 1e-12


class TestVerify:
    def test_identity_only_passes(self, capsys):
        code, out, _ = _run(capsys, ["verify", "-d", "4", "--mu", "1.5",
                                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["summary"]["max_route_diff"] <= 1e-12
        assert payload["summary"]["pass"] is True

    def test_default_grid_passes(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["summary"]["max_route_diff"] <= 1e-12
        # 5 dims x 6 mus x 101 channels of identity rows
        assert len(payload["rows"]) == 5 * 6 * 101

    def test_lmax0_d2_reports_unit_eigenvalue(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--lmax", "0", "-d", "2",
                                     "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert rows
        for row in rows:
            assert row["l"] == 0
            assert row["re"] == 1.0 and row["im"] == 0.0
            assert row["route_diff"] == 0.0

    def test_numeric_sweep_restricted_grid(self, capsys, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "# restricted sweep\n"
            "dims = 2, 3\n"
            "mus = 1.0\n"
            "alphas = 1.0\n"
            "lmax = 1\n"
            "lmax_identity = 10\n"
        )
        code, out, _ = _run(capsys, ["verify", "--numeric", "--config",
                                     str(cfg), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["summary"]["max_abs_dD"] <= 1e-4
        assert payload["summary"]["max_rel_dC"] <= 1e-4
        sweep_rows = [r for r in payload["rows"] if r["check"] == "sweep"]
        assert len(sweep_rows) == 4
        # the variant constant visibly disagrees somewhere with nu != mu
        ratios = [r["variant_amplitude_ratio"] for r in sweep_rows
                  if r["variant_amplitude_ratio"] is not None]
        assert any(abs(x - 1.0) > 0.1 for x in ratios)

    def test_phase_sign_flip_canary(self, capsys, monkeypatch):
        # corrupting the +pi/4 term in the closed-form phase must fail verify
        original = closedform.closed_form_phase

        def corrupted(ch):
            return closedform.reduce_angle(original(ch) - math.pi / 2.0)

        monkeypatch.setattr(closedform, "closed_form_phase", corrupted)
        code, out, _ = _run(capsys, ["verify", "-d", "3", "--mu", "1.0",
                                     "--format", "json"])
        assert code == EXIT_TOLERANCE
        assert json.loads(out)["summary"]["pass"] is False

    def test_bad_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n")
        code, _, err = _run(capsys, ["verify", "--config", str(cfg)])
        assert code == EXIT_INVALID
        assert "nonsense_key" in err
        # checked on load, so it never reaches the numeric route (exit 3)
        for rtol in ("0", "1e-30"):  # 1e-30 is below double rounding
            cfg.write_text(f"rtol = {rtol}\n")
            code, _, err = _run(capsys, ["verify", "--numeric", "--config", str(cfg)])
            assert code == EXIT_INVALID
            assert "rtol" in err

    def test_integrator_tolerance_override(self, capsys, tmp_path):
        cfg = tmp_path / "rtol.cfg"
        cfg.write_text(
            "dims = 2\nmus = 1.0\nalphas = 1.0\nlmax = 0\n"
            "lmax_identity = 0\nrtol = 1e-8\n"
        )
        code, out, _ = _run(capsys, ["verify", "--numeric", "--config",
                                     str(cfg), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["summary"]["max_abs_dD"] <= 1e-4
