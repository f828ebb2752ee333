"""Tests for the experiment driver: configs, per-kind bounds, reports."""

import hashlib
import json
import math

import pytest

import systolab.experiments
import systolab.metric
from systolab.errors import IOFailure, NonAdmissibleT
from systolab.harmonics import SphericalFunction, mean_zero_decompose
from systolab.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    default_directions,
    emit_report,
    render_report,
    run_experiment,
    write_funk_scan,
)
from systolab.geodesics import SystoleReport
from systolab.metric import sup_norm

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
INV_PI = 1.0 / math.pi

#: Estimate settings small enough for fast tests but honest end-to-end runs.
KNOBS = dict(n=32, seed=3)

Y20 = SphericalFunction.harmonic(2, 0)
Y30 = SphericalFunction.harmonic(3, 0)
MIXED_PARITY = SphericalFunction.from_pairs([(1, 0, 1.0), (2, 0, 1.0)])
CONST_PLUS_Y20 = SphericalFunction.from_pairs([(0, 0, 1.0), (2, 0, 1.0)])


def row_dicts(rows):
    return [row.as_record() for row in rows]


def fixed_estimate(g, **knobs):
    """A stand-in for estimate_systole: a fixed report, at once."""
    return SystoleReport(6.2, None, [], 0.9, [])


class TestExperimentConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentConfig(kind="frobnicate", f=Y20)

    def test_empty_t_values(self):
        with pytest.raises(ValueError, match="at least one"):
            ExperimentConfig(kind="proposition", f=Y20, t_values=())

    def test_bad_format(self):
        with pytest.raises(ValueError, match="format"):
            ExperimentConfig(kind="proposition", f=Y20, fmt="xml")

    @pytest.mark.parametrize("n", [33, 30])
    def test_n_must_be_even_and_at_least_32(self, n):
        with pytest.raises(ValueError, match="n must be an even integer >= 32"):
            ExperimentConfig(kind="proposition", f=Y20, n=n)

    def test_non_admissible_t_rejected(self):
        with pytest.raises(NonAdmissibleT):
            ExperimentConfig(kind="proposition", f=Y20, t_values=(0.05, 5.0))
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonAdmissibleT, match="finite"):
                ExperimentConfig(kind="proposition", f=Y20, t_values=(0.05, t))

    def test_baseline_only_at_zero(self):
        with pytest.raises(NonAdmissibleT, match="t = 0"):
            ExperimentConfig(kind="baseline", t_values=(0.1,))

    def test_general_scale_factor_must_stay_positive(self):
        # lam = -1, so 1 + lam*t hits zero at t = 1 while the mean-zero
        # part (Y20) would still be admissible there.
        f = SphericalFunction.from_pairs([(0, 0, -math.sqrt(FOUR_PI)), (2, 0, 1.0)])
        with pytest.raises(NonAdmissibleT, match="scale factor"):
            ExperimentConfig(kind="general_direction", f=f, t_values=(1.0,))

    def test_direction_preprocessing(self):
        zoll = ExperimentConfig(kind="zoll_first_order", f=MIXED_PARITY)
        assert zoll.direction().coefficient(1, 0) == 1.0
        assert zoll.direction().coefficient(2, 0) == 0.0
        pu = ExperimentConfig(kind="pu_even", f=MIXED_PARITY)
        assert pu.direction().coefficient(1, 0) == 0.0
        assert pu.direction().coefficient(2, 0) == 1.0
        prop = ExperimentConfig(kind="proposition", f=CONST_PLUS_Y20)
        assert prop.direction().coefficient(0, 0) == 0.0
        _, f0 = mean_zero_decompose(CONST_PLUS_Y20)
        assert prop.direction().coefficient(2, 0) == f0.coefficient(2, 0)

    @pytest.mark.parametrize("key, value, message", [
        ("n", 64.5, "n must be an integer"),
        ("n", True, "n must be an integer"),
        ("seed", 2.5, "seed must be an integer"),
        ("seed", False, "seed must be an integer"),
        ("seed", "3", "seed must be an integer"),
        ("seed", -1, "seed must be >= 0"),
    ])
    def test_n_and_seed_must_be_integers(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(kind="proposition", f=Y20, **{key: value})
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json({"kind": "proposition", key: value})

    @pytest.mark.parametrize("t", [True, False, "0.05", None, [0.05]])
    def test_every_t_must_be_a_number(self, t):
        # a bool or a string is refused, not run as 1, 0 or 0.05
        with pytest.raises(ValueError, match="every t must be a number"):
            ExperimentConfig(kind="proposition", f=Y20, t_values=(0.05, t))
        with pytest.raises(ValueError, match="every t must be a number"):
            ExperimentConfig.from_json({"kind": "proposition", "t_values": [t]})

    def test_integer_t_is_a_number(self):
        cfg = ExperimentConfig(kind="proposition", f=Y20, t_values=(0, 0.05))
        assert cfg.t_values == (0.0, 0.05)
        assert isinstance(cfg.t_values[0], float)

    def test_misspelled_direction_key_is_refused(self):
        # "coef" for "coeffs" would otherwise run the round sphere
        with pytest.raises(ValueError, match="unknown direction keys"):
            ExperimentConfig.from_json(
                {"kind": "proposition", "f": {"L": 2, "coef": [[2, 0, 1.0]]}}
            )

    @pytest.mark.parametrize("out", [1, 7, True, 2.5, ["r.csv"]])
    def test_out_must_be_a_path_or_none(self, out):
        # an integer out would be opened as a file descriptor
        with pytest.raises(ValueError, match="out must be a path or null"):
            ExperimentConfig(kind="proposition", f=Y20, out=out)
        with pytest.raises(ValueError, match="out must be a path or null"):
            ExperimentConfig.from_json({"kind": "proposition", "out": out})

    def test_integral_floats_are_accepted(self):
        cfg = ExperimentConfig.from_json({"kind": "proposition", "n": 64.0, "seed": 7.0})
        assert (cfg.n, cfg.seed) == (64, 7)
        assert isinstance(cfg.n, int) and isinstance(cfg.seed, int)

    def test_direction_without_band_limit(self):
        cfg = ExperimentConfig.from_json(
            {"kind": "proposition", "f": {"coeffs": [[2, 0, 1.0]]}, "t_values": [0.1]}
        )
        assert cfg.f.degree == 2
        assert cfg.f.coefficient(2, 0) == 1.0

    def test_direction_is_built_once(self):
        for kind in ("baseline", "proposition", "zoll_first_order", "pu_even"):
            cfg = ExperimentConfig(kind=kind, f=MIXED_PARITY)
            assert cfg.direction() is cfg.direction()

    @pytest.mark.parametrize("kind, t_values", [
        ("proposition", (0.05, 0.1)),
        ("scale_invariance", (0.05, 0.1)),
        ("general_direction", (-0.1, 0.1)),
    ])
    def test_one_sup_norm_per_run(self, monkeypatch, kind, t_values):
        # the config's bound check, every row's metric and every rescaled
        # metric of scale_invariance share the direction's one sup norm
        # (scale_invariance over two t made 9 calls when each metric
        # computed its own)
        calls = []

        def counted(f):
            calls.append(f)
            return sup_norm(f)

        monkeypatch.setattr(systolab.metric, "sup_norm", counted)
        monkeypatch.setattr(systolab.experiments, "estimate_systole", fixed_estimate)
        cfg = ExperimentConfig(kind=kind, f=CONST_PLUS_Y20, t_values=t_values, **KNOBS)
        rows = run_experiment(cfg)
        assert len(rows) == 2
        assert calls == [cfg.direction()]

    def test_coefficient_pairs_are_coerced(self):
        cfg = ExperimentConfig(kind="proposition", f=[[2, 0, 1.0]], t_values=(0.1,))
        assert isinstance(cfg.f, SphericalFunction)
        assert cfg.f.coefficient(2, 0) == 1.0

    def test_json_round_trip(self):
        cfg = ExperimentConfig(
            kind="proposition", f=Y20, t_values=(0.05, -0.05),
            n=32, seed=3, out="r.csv", fmt="json",
        )
        again = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again.to_json() == cfg.to_json()

    def test_json_defaults_are_the_field_defaults(self):
        parsed = ExperimentConfig.from_json({"kind": "proposition"})
        assert parsed.to_json() == ExperimentConfig(kind="proposition").to_json()
        # the "N" and "tol" of older configs are ignored
        for old in ({"N": 17}, {"tol": 1e-9}):
            legacy = ExperimentConfig.from_json({"kind": "proposition", **old})
            assert legacy.to_json() == parsed.to_json()
        assert "tol" not in parsed.to_json()
        # any other key that is no field is refused, by name
        with pytest.raises(ValueError, match=r"unknown config keys \['format_', 'sed'\]"):
            ExperimentConfig.from_json({"kind": "proposition", "sed": 7, "format_": "json"})

    def test_default_directions_cover_the_standard_set(self):
        dirs = default_directions()
        assert set(dirs) == {"Y20", "Y30", "Y21+0.5*Y43", "Y10+Y20"}
        assert dirs["Y21+0.5*Y43"].coefficient(4, 3) == 0.5


class TestBaseline:
    def test_round_values(self):
        rows = run_experiment(ExperimentConfig(kind="baseline", **KNOBS))
        assert len(rows) == 1
        row = rows[0]
        assert row.t == 0.0
        assert abs(row.area - FOUR_PI) <= 1e-10
        assert abs(row.systole - TWO_PI) <= 1e-4
        assert abs(row.ratio - INV_PI) <= 1e-4
        assert row.bound_check
        assert row.warnings == ()


class TestProposition:
    def test_bounds_and_order(self):
        ts = (0.05, -0.05)
        rows = run_experiment(
            ExperimentConfig(kind="proposition", f=Y20, t_values=ts, **KNOBS)
        )
        assert tuple(row.t for row in rows) == ts
        for row in rows:
            assert row.bound_check
            assert row.ratio > INV_PI
            assert row.systole <= TWO_PI + 1e-4
            floor = INV_PI + row.t**2 / (4.0 * math.pi**2) - 1e-6
            assert row.ratio >= floor
            assert abs(row.ratio - row.area / row.systole**2) <= 1e-12
            assert abs(row.ratio_minus_inv_pi - (row.ratio - INV_PI)) == 0.0
            assert abs(row.two_pi_minus_systole - (TWO_PI - row.systole)) == 0.0

    def test_reruns_are_identical(self):
        cfg = ExperimentConfig(kind="proposition", f=Y20, t_values=(0.05,), **KNOBS)
        assert run_experiment(cfg) == run_experiment(cfg)


class TestGeneralDirection:
    def test_constant_part_rides_the_scale_direction(self):
        lam = 1.0 / math.sqrt(FOUR_PI)
        rows = run_experiment(
            ExperimentConfig(
                kind="general_direction", f=CONST_PLUS_Y20,
                t_values=(-0.1, 0.1), **KNOBS,
            )
        )
        for row in rows:
            expected_area = (1.0 + lam * row.t) * (FOUR_PI + row.t**2)
            assert abs(row.area - expected_area) <= 1e-10
            assert row.bound_check
            assert row.ratio >= INV_PI - 1e-6

    def test_ratio_matches_the_unscaled_variation(self):
        # The lam-direction multiplies the metric by a constant, so the
        # ratio must agree with the plain variation of the mean-zero part.
        general = run_experiment(
            ExperimentConfig(
                kind="general_direction", f=CONST_PLUS_Y20, t_values=(0.1,), **KNOBS
            )
        )[0]
        plain = run_experiment(
            ExperimentConfig(kind="proposition", f=Y20, t_values=(0.1,), **KNOBS)
        )[0]
        assert abs(general.ratio - plain.ratio) <= 1e-12


class TestZollFirstOrder:
    def test_odd_direction_first_order_facts(self):
        rows = run_experiment(
            ExperimentConfig(
                kind="zoll_first_order", f=Y30, t_values=(0.1, 0.05), **KNOBS
            )
        )
        for row in rows:
            assert row.bound_check
            assert row.extras["zoll_linear_max"] <= 1e-10
            assert 3.5 <= row.extras["zoll_quad_ratio"] <= 4.5
        # quadratic scaling: deviations themselves drop by ~4 from t to t/2
        assert rows[0].extras["zoll_deviation"] > rows[1].extras["zoll_deviation"]

    def test_even_part_is_discarded(self):
        cfg = ExperimentConfig(
            kind="zoll_first_order", f=MIXED_PARITY, t_values=(0.1,), **KNOBS
        )
        assert cfg.direction().coefficient(2, 0) == 0.0
        row = run_experiment(cfg)[0]
        assert row.bound_check
        assert row.extras["zoll_linear_max"] <= 1e-10


class TestPuEven:
    def test_even_part_drives_the_metric(self):
        rows = run_experiment(
            ExperimentConfig(
                kind="pu_even", f=MIXED_PARITY, t_values=(-0.05, 0.05), **KNOBS
            )
        )
        for row in rows:
            # metric direction is the Y20 part alone, so the area law uses
            # |pi_+ f|^2 = 1
            assert abs(row.area - (FOUR_PI + row.t**2)) <= 1e-10
            assert row.bound_check
            assert row.ratio >= INV_PI - 1e-6
            assert row.ratio_minus_inv_pi > 0.0


class TestScaleInvariance:
    def test_ratio_is_scale_free(self):
        row = run_experiment(
            ExperimentConfig(kind="scale_invariance", f=Y20, t_values=(0.1,), **KNOBS)
        )[0]
        assert row.bound_check
        assert row.extras["scale_ratio_dev"] <= 1e-10


class TestConjectureProbe:
    def test_probe_emitted_never_asserted(self):
        rows = run_experiment(
            ExperimentConfig(
                kind="conjecture_probe", f=MIXED_PARITY, t_values=(0.05, 0.1), **KNOBS
            )
        )
        for row in rows:
            assert row.bound_check  # always true: the probe only reports
            probe = row.extras["conjecture_probe"]
            even_norm2 = 1.0  # |pi_+ (Y10 + Y20)|^2 = |Y20|^2
            expected = (math.pi * row.ratio - 1.0) / (row.t**2 * even_norm2)
            assert abs(probe - expected) <= 1e-12

    def test_zero_even_part_gives_nan_probe(self):
        row = run_experiment(
            ExperimentConfig(
                kind="conjecture_probe", f=Y30, t_values=(0.05,), **KNOBS
            )
        )[0]
        assert math.isnan(row.extras["conjecture_probe"])


def sample_rows():
    return [
        ResultRow(
            t=0.05, area=12.5689, systole=6.1841, ratio=0.3287,
            ratio_minus_inv_pi=0.0104, two_pi_minus_systole=0.0991,
            curvature_min=0.9331, bound_check=True,
            warnings=("curvature check skipped, t near the boundary",),
        ),
        ResultRow(
            t=-0.05, area=12.5689, systole=6.2336, ratio=0.3235,
            ratio_minus_inv_pi=0.0051, two_pi_minus_systole=0.0496,
            curvature_min=math.nan, bound_check=False, warnings=(),
        ),
    ]


class TestReports:
    def test_csv_shape_and_determinism(self, tmp_path):
        rows = sample_rows()
        path = tmp_path / "report.csv"
        emit_report(rows, path, fmt="csv")
        first = path.read_bytes()
        emit_report(rows, path, fmt="csv")
        assert path.read_bytes() == first
        lines = first.decode().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert float(cells[0]) == 0.05
        assert cells[7] == "true"
        assert lines[2].split(",")[6] == "nan"
        assert lines[2].split(",")[7] == "false"

    def test_json_mirrors_csv(self, tmp_path):
        rows = sample_rows()
        path = tmp_path / "report.json"
        emit_report(rows, path, fmt="json")
        records = json.loads(path.read_text())
        assert [tuple(r.keys()) for r in records] == [CSV_COLUMNS] * 2
        assert records[0]["t"] == rows[0].t
        assert records[0]["systole"] == rows[0].systole
        assert records[0]["bound_check"] is True
        assert records[0]["warnings"].startswith("curvature check")
        assert records[1]["curvature_min"] is None  # NaN becomes null
        assert render_report(rows, fmt="json") == render_report(rows, fmt="json")

    def test_csv_floats_round_trip(self):
        rows = sample_rows()
        lines = render_report(rows, fmt="csv").splitlines()
        cells = lines[1].split(",")
        assert float(cells[1]) == rows[0].area
        assert float(cells[2]) == rows[0].systole
        assert float(cells[3]) == rows[0].ratio

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            emit_report([], tmp_path / "empty.csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render_report(sample_rows(), fmt="xml")

    def test_unwritable_path_raises_io_failure(self):
        with pytest.raises(IOFailure, match="could not write"):
            emit_report(sample_rows(), "/nonexistent-dir/report.csv")


class TestWriters:
    def test_funk_scan_bytes(self, tmp_path):
        path = tmp_path / "scan.csv"
        # the 190 nodes of the band-18 quadrature (ten latitudes times 19
        # longitudes); the Funk image of Y22 is -pi * Y22, and its first
        # value is that product to the last bit
        write_funk_scan(SphericalFunction.harmonic(2, 2), path)
        data = path.read_bytes()
        assert data.startswith(
            b"ux,uy,uz,funk_value\n"
            b"0.22694949594927788,0.0,-0.9739065285171717,-0.08839323320154595\n"
        )
        assert data.count(b"\n") == 191
        assert hashlib.sha256(data).hexdigest() == (
            "86a943fb4db2bf638bd64d11d42284e1d889ceb4021cd83c8e8c167e98624890"
        )

    @pytest.mark.parametrize(
        "write",
        [lambda path: write_funk_scan(SphericalFunction.harmonic(2, 0), path)],
        ids=["funk_scan"],
    )
    def test_unwritable_path_raises_io_failure(self, tmp_path, write):
        with pytest.raises(IOFailure, match="could not write"):
            write(tmp_path / "missing" / "out.csv")
