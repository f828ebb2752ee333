"""Tests for the command-line front end (all in-process via main(argv))."""

import csv
import json
import math

import pytest

from systolab import cli
from systolab.experiments import CSV_COLUMNS, ResultRow
from systolab.geodesics import SystoleReport


def write_config(tmp_path, **overrides):
    settings = {
        "f": {"L": 2, "coeffs": [[2, 0, 1.0]]},
        "t_values": [0.05],
        "n": 32,
        "seed": 3,
    }
    settings.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(settings))
    return str(path)


def fake_estimate(curvature_min):
    """A stand-in for estimate_systole that returns a fixed report at once."""
    def estimate(g, **knobs):
        return SystoleReport(6.2, None, [("geodesic-funk-circle0", 6.2)], curvature_min, [])
    return estimate


class TestExperimentCommands:
    def test_baseline_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, t_values=[0.0])
        assert cli.main(["baseline", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "baseline: 1/1 rows pass" in out
        assert "bound=PASS" in out

    def test_baseline_rejects_nonzero_t(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # carries t_values=[0.05]
        assert cli.main(["baseline", "--config", cfg]) == 2
        assert "only at t = 0" in capsys.readouterr().err

    def test_proposition_report_and_t_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_path = tmp_path / "prop.csv"
        code = cli.main(
            ["proposition", "--config", cfg, "--t", "0.05,-0.05",
             "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        # --t overrides the config's single value, in the given order
        assert float(lines[1].split(",")[0]) == 0.05
        assert float(lines[2].split(",")[0]) == -0.05

    def test_report_bytes_are_reproducible(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["proposition", "--config", cfg, "--out", str(a),
                         "--format", "json"]) == 0
        assert cli.main(["proposition", "--config", cfg, "--out", str(b),
                         "--format", "json"]) == 0
        assert a.read_bytes() == b.read_bytes()
        records = json.loads(a.read_text())
        assert [tuple(r.keys()) for r in records] == [CSV_COLUMNS]

    def test_non_admissible_t_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["proposition", "--config", cfg, "--t", "5.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_bound_exits_1(self, tmp_path, monkeypatch, capsys):
        import math
        failing = ResultRow(
            t=0.1, area=12.0, systole=6.0, ratio=1.0 / 3.0,
            ratio_minus_inv_pi=0.01, two_pi_minus_systole=0.28,
            curvature_min=0.5, bound_check=False, warnings=(),
        )
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: [failing])
        cfg = write_config(tmp_path)
        assert cli.main(["proposition", "--config", cfg]) == 1
        assert "bound=FAIL" in capsys.readouterr().out

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["proposition", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: could not read config")

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["proposition", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "is not valid JSON" in err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])


class TestFunkScan:
    def test_written_file(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "scan.csv"
        assert cli.main(["funk-scan", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_bytes().decode()
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == "ux,uy,uz,funk_value"
        assert len(lines) > 10

    def test_stdout_mode_matches_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "scan.csv"
        assert cli.main(["funk-scan", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["funk-scan", "--config", cfg]) == 0
        stdout_lines = capsys.readouterr().out.splitlines()
        assert stdout_lines == out.read_text().splitlines()
        for field in stdout_lines[1].split(","):
            float(field)

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "missing" / "scan.csv"
        assert cli.main(["funk-scan", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: could not write")

    @pytest.mark.parametrize("flag", [["--format", "json"], ["--t", "0.1"], ["--seed", "3"]])
    def test_unread_flags_rejected(self, flag):
        with pytest.raises(SystemExit):
            cli.main(["funk-scan", *flag])


class TestSystoleCommand:
    def test_json_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "sys.json"
        code = cli.main(["systole", "--config", cfg, "--out", str(out),
                         "--format", "json"])
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == 1
        rec = records[0]
        assert rec["t"] == 0.05
        assert 6.0 < rec["systole"] < 6.3
        assert rec["witness_length"] is not None
        won = [tag for tag, length in rec["candidates"] if length == rec["systole"]]
        assert won and all(tag.startswith("geodesic-") for tag in won)
        assert rec["systole"] == rec["witness_length"]
        assert "systole=" in capsys.readouterr().out

    def test_config_keys_of_older_configs_are_ignored(self, tmp_path):
        # the CLI reads no "N" (the old loop's family size) and no "tol" (the
        # shortening has one freeze threshold); a config that carries them,
        # as older configs do, gives the same report
        settings = json.loads(open(write_config(tmp_path)).read())
        reports = []
        for k, extra in enumerate(({}, {"N": 17}, {"tol": 1e-9})):
            cfg, out = tmp_path / f"cfg{k}.json", tmp_path / f"report{k}.json"
            cfg.write_text(json.dumps({**settings, **extra}))
            assert cli.main(["systole", "--config", str(cfg), "--out", str(out),
                             "--format", "json"]) == 0
            reports.append(out.read_bytes())
        assert reports[1:] == [reports[0]] * 2

    def test_csv_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sys.csv"
        assert cli.main(["systole", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,systole,witness_length,ratio,curvature_min,warnings"
        assert len(lines) == 2
        assert lines[1].endswith(",")  # no warnings: an empty last cell

    def test_unwritable_out_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "estimate_systole", fake_estimate(0.9))
        cfg = write_config(tmp_path)
        out = tmp_path / "missing" / "sys.csv"
        assert cli.main(["systole", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: could not write")

    def test_nan_curvature_is_json_null(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "estimate_systole", fake_estimate(math.nan))
        cfg = write_config(tmp_path)
        out = tmp_path / "sys.json"
        assert cli.main(["systole", "--config", cfg, "--out", str(out),
                         "--format", "json"]) == 0

        def reject(name):
            raise ValueError(f"bare {name} in JSON output")

        records = json.loads(out.read_text(), parse_constant=reject)
        assert records[0]["curvature_min"] is None


class TestConfigParsing:
    """Every subcommand parses its settings through ExperimentConfig.from_json."""

    @pytest.mark.parametrize("command, column, expected", [
        ("systole", "systole", 2.0 * math.pi),
        ("funk-scan", "funk_value", 0.0),
    ])
    def test_null_direction_is_the_round_sphere(self, tmp_path, command, column, expected):
        cfg = write_config(tmp_path, f=None)
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            values = [float(row[column]) for row in csv.DictReader(fh)]
        assert values
        assert all(abs(v - expected) <= 1e-9 for v in values)

    @pytest.mark.parametrize("command", ["proposition", "systole"])
    @pytest.mark.parametrize("invalid", [
        {"n": 33}, {"n": "abc"}, {"n": None}, {"format": "xml"}, "top-level list",
        {"n": 64.5}, {"seed": 2.5}, {"seed": True}, {"seed": -1}, {"sed": 7},
        {"t_values": [math.nan]}, {"f": [[2, 0, math.nan]]},
        {"t_values": [True]}, {"t_values": ["0.05"]},
        {"f": {"L": 2, "coef": [[2, 0, 1.0]]}},
    ], ids=["odd-n", "non-integer-n", "null-n", "unknown-format", "list",
            "non-integral-n", "non-integral-seed", "bool-seed", "negative-seed",
            "misspelled-key", "nan-t", "nan-coefficient", "bool-t", "string-t",
            "misspelled-direction-key"])
    def test_invalid_config_exits_2(self, tmp_path, capsys, command, invalid):
        if invalid == "top-level list":
            cfg = tmp_path / "list.json"
            cfg.write_text(json.dumps([{"n": 32}]))
        else:
            cfg = write_config(tmp_path, **invalid)
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        # main returned, so no exception escaped with a traceback
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["funk-scan", "proposition", "systole"])
    @pytest.mark.parametrize("out", [1, 7])
    def test_non_path_out_exits_2(self, tmp_path, capsys, command, out):
        # an integer out would be opened as a file descriptor
        cfg = write_config(tmp_path, out=out)
        assert cli.main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid config: out must be a path or null")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["proposition", "systole"])
    def test_non_finite_t_flag_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        assert cli.main([command, "--config", cfg, "--t", "nan"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_direction_without_band_limit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "estimate_systole", fake_estimate(0.9))
        cfg = write_config(tmp_path, f={"coeffs": [[2, 0, 1.0]]})
        assert cli.main(["systole", "--config", cfg]) == 0
        assert "systole=6.2" in capsys.readouterr().out
