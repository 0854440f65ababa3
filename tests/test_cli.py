"""Command-line interface: formats, determinism, exit codes, canary."""

import json
import math
import shlex
from pathlib import Path

import pytest

from zescat import closedform
from zescat.cli import (CONFIG_KEYS, DEFAULT_GRID, EXIT_INVALID, EXIT_NUMERIC,
                        EXIT_OK, EXIT_TOLERANCE, TOL_PHASE, TOL_ROUTE,
                        _build_parser, _load_config, main)

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"


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

    @pytest.mark.parametrize("command", ["verify", "phase-table"])
    def test_negative_lmax_names_the_option(self, capsys, command):
        argv = [command, "--lmax", "-1"]
        if command != "verify":
            argv += ["-d", "3", "--mu", "1.0"]
        code, out, err = _run(capsys, argv)
        assert code == EXIT_INVALID
        assert out == "" and err == "zescat: error: lmax must be >= 0, got -1\n"

    def test_unknown_flag(self, capsys):
        code, _, _ = _run(capsys, ["eigenvalues", "-d", "3", "--mu", "1.0",
                                   "--frequency", "7"])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("argv, config", [
        (["eigenvalues", "--numeric"], None),
        (["eigenvalues", "--config"], "tol_phase = 1e-4"),
        (["eigenvalues", "--tol-phase", "1e-4"], None),
        (["verify", "--degrees"], None),
        (["phase-table", "--tol-phase", "1e-4"], None),
        # phase-table reads only the tolerances, never the verify grid
        (["phase-table", "--config"], "dims = 3"),
    ])
    def test_option_the_command_does_not_read(self, capsys, tmp_path, argv,
                                               config):
        if argv[0] != "verify":
            argv = argv[:1] + ["-d", "3", "--mu", "1.0", "--lmax", "1"] + argv[1:]
        if config is not None:
            path = tmp_path / "extra.cfg"
            path.write_text(config)
            argv = argv + [str(path)]
        code, out, err = _run(capsys, argv)
        assert code == EXIT_INVALID
        assert out == ""
        if argv[0] == "phase-table" and config is not None:
            assert err.count("\n") == 1 and "'dims'" in err

    def test_unwritable_out_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = _run(capsys, ["phase-table", "-d", "3", "--mu", "1.0",
                                       "--lmax", "1", "--out", str(path)])
        assert code == EXIT_INVALID
        assert out == "" and err.count("\n") == 1 and str(path) in err
        # a failed computation writes no report, not even an empty file
        path = tmp_path / "x.csv"
        code, _, _ = _run(capsys, ["phase-table", "-d", "3", "--mu", "1.999999",
                                   "--lmax", "0", "--numeric", "--out", str(path)])
        assert code == EXIT_NUMERIC
        assert not path.exists()

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
        # f at the Riccati march's hand-over radius, before the fit
        # window, leaves the double range
        (["verify", "-d", "4", "--mu", "1.0", "--alpha", "1e-300"], "non-finite"),
        # a huge coupling also pushes the seed radius below that range
        (["phase-table", "-d", "3", "--mu", "0.3", "--alpha", "1e250"],
         "alpha too large"),
        # a tiny coupling puts the fit window past the largest double
        (["phase-table", "-d", "3", "--mu", "1.9", "--alpha", "1e-300"],
         "outside the representable radial range"),
        (["phase-table", "-d", "3", "--mu", "1.0", "--alpha", "1e-320"],
         "outside the representable radial range"),
    ])
    def test_numeric_route_failure_exits_three(self, capsys, recwarn, argv, reason):
        code, out, err = _run(capsys, argv + ["--numeric", "--lmax", "0"])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.count("\n") == 1 and reason in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


    def test_underflowing_closed_amplitude_still_compares(self, capsys):
        # C_closed at l = 8 is 4.09e-35 although 0.01^170.5 underflows
        code, out, err = _run(capsys, ["phase-table", "-d", "3", "--mu", "1.9",
                                       "--alpha", "100", "--lmax", "9",
                                       "--numeric", "--format", "json"])
        assert code == EXIT_OK and err == ""
        row = json.loads(out)["rows"][8]
        assert row["C_closed"] > 0.0 and row["rel_dC"] <= 1e-4

    def test_closed_amplitude_below_double_range_is_missing(self, capsys):
        # C_closed leaves the normal double range at l = 66: empty in csv,
        # null in json, exactly from there on
        argv = ["phase-table", "-d", "3", "--mu", "1.0", "--alpha", "1e8",
                "--lmax", "80"]
        code, out, err = _run(capsys, argv + ["--format", "csv"])
        assert code == EXIT_OK and err == ""
        cells = [line.split(",")[-1] for line in out.strip().split("\n")[1:]]
        assert [cell == "" for cell in cells] == [l >= 66 for l in range(81)]
        code, out, err = _run(capsys, argv + ["--format", "json"])
        assert code == EXIT_OK and err == ""
        rows = json.loads(out)["rows"]
        assert [row["C_closed"] is None for row in rows] == [l >= 66 for l in range(81)]
        assert min(row["C_closed"] for row in rows[:66]) > 4.7e-305


class TestGolden:
    """Closed-form reports, byte for byte; their bytes come from the
    standard library's math only (tests/golden/<name>.<format>)."""

    COMMANDS = {
        "phase_table_d3_mu0.3": "phase-table -d 3 --mu 0.3 --alpha 0.5 --lmax 40",
        # rows past Gamma's range, and rows whose C_closed leaves double range
        "phase_table_d5_mu1.9": "phase-table -d 5 --mu 1.9 --alpha 1.0 --lmax 20",
        "eigenvalues_d3_mu0.8":
            "eigenvalues -d 3 --mu 0.8 --alpha 2.0 --lmax 20 --degrees",
        "verify_d3_mu1.0": "verify -d 3 --mu 1.0 --lmax 20",
    }

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    @pytest.mark.parametrize("name", COMMANDS)
    def test_stdout_matches_golden(self, capsys, name, fmt):
        argv = shlex.split(self.COMMANDS[name]) + ["--format", fmt]
        code, out, err = _run(capsys, argv)
        assert code == EXIT_OK and err == ""
        assert out == (GOLDEN / f"{name}.{fmt}").read_bytes().decode("utf-8")


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

    def test_config_sets_tolerances(self, capsys, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("tol_phase = 1e-30\n")
        code, out, _ = _run(capsys, ["phase-table", "-d", "2", "--mu", "1.0",
                                     "--lmax", "0", "--numeric", "--config",
                                     str(cfg), "--format", "json"])
        assert code == EXIT_TOLERANCE
        # the amplitude tolerance follows the phase tolerance
        assert json.loads(out)["config"]["tol_amp"] == 1e-30


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
        # the integrator tolerance is no setting; a leftover rtol key is
        # rejected on load like any other unknown key
        for rtol in ("0", "1e-30"):
            cfg.write_text(f"rtol = {rtol}\n")
            code, _, err = _run(capsys, ["verify", "--numeric", "--config", str(cfg)])
            assert code == EXIT_INVALID
            assert "rtol" in err
        # out of range: an empty sweep would pass, a NaN tolerance never can
        for line in ("lmax = -1", "lmax_identity = -1", "tol_route = nan",
                     "tol_phase = 0", "tol_amp = inf"):
            cfg.write_text(line + "\n")
            code, out, err = _run(capsys, ["verify", "--numeric", "--config",
                                           str(cfg)])
            assert code == EXIT_INVALID
            assert out == "" and line.split()[0] in err
        # a malformed value names the file, the line and the key
        for line in ("dims = 3,", "lmax = two", "tol_route = 1e-x"):
            cfg.write_text("# comment\n" + line + "\n")
            code, out, err = _run(capsys, ["verify", "--config", str(cfg)])
            assert code == EXIT_INVALID
            assert out == "" and err.count("\n") == 1
            assert f"{cfg}:2" in err and line.split()[0] in err


def test_config_values_take_their_default_types(tmp_path):
    # every verify key, set to an integer literal where one parses
    path = tmp_path / "all.cfg"
    path.write_text("identity_dims = 3\nidentity_mus = 1\nlmax_identity = 4\n"
                    "dims = 3, 4\nmus = 1\nalphas = 1\nlmax = 2\n"
                    "tol_phase = 1\ntol_amp = 1\ntol_route = 1\n")
    conf = _load_config(str(path), CONFIG_KEYS["verify"])
    dims, reals = (tuple, int), (tuple, float)
    expected = {"identity_dims": dims, "identity_mus": reals,
                "lmax_identity": int, "dims": dims, "mus": reals,
                "alphas": reals, "lmax": int, "tol_phase": float,
                "tol_amp": float, "tol_route": float}
    assert set(conf) == set(CONFIG_KEYS["verify"]) == set(expected)
    defaults = {**DEFAULT_GRID, "tol_phase": TOL_PHASE, "tol_amp": TOL_PHASE,
                "tol_route": TOL_ROUTE}
    for key, value in conf.items():
        for given in (value, defaults[key]):
            if expected[key] in (dims, reals):
                assert type(given) is tuple, key
                assert {type(v) for v in given} == {expected[key][1]}, key
            else:
                assert type(given) is expected[key], key
    assert conf["dims"] == (3, 4) and conf["alphas"] == (1.0,)


class TestReadme:
    def _section_blocks(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
        return section.split("```")[1::2]

    def test_command_lines_parse(self):
        commands = [shlex.split(line.split("#", 1)[0])[1:]
                    for line in self._section_blocks()[0].splitlines()
                    if line.startswith("zescat ")]
        assert len(commands) >= 3
        parser = _build_parser()
        for argv in commands:
            parser.parse_args(argv)

    def test_config_example_loads(self, tmp_path):
        path = tmp_path / "example.cfg"
        path.write_text(self._section_blocks()[1], encoding="utf-8")
        assert _load_config(str(path), CONFIG_KEYS["verify"])
