"""Experiment driver: sweep t along a variation direction, check the bound.

Each experiment kind fixes a preprocessing of the direction f, a family of
metrics g_t, and an inequality that every result row is checked against:

  baseline          round metric only; area, systole, ratio at their round
                    values.
  proposition       plain variation (1 + t*f0)^2 * g0 with mean-zero f0;
                    ratio strictly above 1/pi for t != 0, with the
                    quantitative lower bound 1/pi + t^2 |f0|^2 / (4 pi^2),
                    and systole <= 2*pi.
  general_direction normalized variation (1+lam*t)(1 + t*f0)^2 * g0 of an
                    arbitrary f = lam + f0; same ratio bound (the ratio is
                    scale-invariant, so the lam-direction drops out).
  zoll_first_order  exponential family exp(2*t*f_odd) * g0; great-circle
                    lengths are 2*pi + O(t^2): the t-linear term vanishes
                    (Funk transform of an odd function) and the maximal
                    deviation scales as t^2 (checked against t/2).  The
                    row's area/systole columns report the standard
                    (1 + t*f_odd)^2 family so that rows stay comparable
                    across kinds.
  pu_even           even part of f; ratio >= 1/pi, strictly for |t| >= 0.05.
  scale_invariance  ratio(mu * g_t) = ratio(g_t) for mu in {1/2, 2, 10},
                    each scale realized through the lam-direction
                    (1 + lam*t) = mu and re-estimated from scratch.
  conjecture_probe  emits (pi * ratio - 1) / (t^2 |pi_+ f0|^2), which the
                    sharp-constant conjecture keeps >= 1 at leading order;
                    recorded in the row extras, never asserted.

Rows are independent; a full run is reproducible from (config, seed).
"""

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .circles import TWO_PI, _great_circle_sums, default_circle_samples, funk_scan
from .errors import IOFailure, NonAdmissibleT
from .geodesics import DEFAULT_VERTICES, estimate_systole
from .harmonics import (
    FOUR_PI,
    SphericalFunction,
    mean_zero_decompose,
    parity_decompose,
)
from .metric import area, make_variation, max_admissible_t, systolic_ratio

INV_PI = 1.0 / math.pi

KINDS = (
    "baseline",
    "proposition",
    "general_direction",
    "zoll_first_order",
    "pu_even",
    "scale_invariance",
    "conjecture_probe",
)

#: Report columns, in emission order (identical for CSV and JSON).
CSV_COLUMNS = (
    "t",
    "area",
    "systole",
    "ratio",
    "ratio_minus_inv_pi",
    "two_pi_minus_systole",
    "curvature_min",
    "bound_check",
    "warnings",
)

#: Keys of a config's JSON form (ExperimentConfig.to_json).
CONFIG_KEYS = ("kind", "f", "t_values", "n", "seed", "out", "format")

LENGTH_TOL = 1e-4   # tolerance on length-scale claims (systole, 2*pi, ...)
RATIO_TOL = 1e-6    # tolerance on ratio-scale claims
SCALE_TOL = 1e-10   # scale invariance of the ratio
ZOLL_LINEAR_TOL = 1e-10
SCALE_FACTORS = (0.5, 2.0, 10.0)

#: Directions every sweep-style check is expected to cover.
def default_directions():
    """The standard test directions, as name -> SphericalFunction."""
    return {
        "Y20": SphericalFunction.harmonic(2, 0),
        "Y30": SphericalFunction.harmonic(3, 0),
        "Y21+0.5*Y43": SphericalFunction.from_pairs(
            [(2, 1, 1.0), (4, 3, 0.5)]
        ),
        "Y10+Y20": SphericalFunction.from_pairs([(1, 0, 1.0), (2, 0, 1.0)]),
    }


@dataclass(frozen=True)
class ResultRow:
    """One (t, metric) evaluation with its margins and bound verdict.

    extras holds kind-specific diagnostics (the conjecture probe value, the
    zoll deviation data, the scale-invariance spread); it is available to
    callers but deliberately kept out of the emitted report, whose columns
    are fixed.
    """

    t: float
    area: float
    systole: float
    ratio: float
    ratio_minus_inv_pi: float
    two_pi_minus_systole: float
    curvature_min: float
    bound_check: bool
    warnings: tuple
    extras: dict = field(default_factory=dict, compare=False, repr=False)

    def as_record(self):
        """Row as a plain dict in report-column order."""
        record = {name: getattr(self, name) for name in CSV_COLUMNS}
        record["warnings"] = "; ".join(self.warnings)
        return record


def _integer(value, name):
    """value as an int; a bool, a string or a non-integral number is refused,
    not truncated."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """A reproducible experiment: kind, direction, t sweep, vertex count, seed.

    f is a SphericalFunction, a list of (l, m, value) coefficient pairs,
    or None for the round sphere.  n, seed and every t are validated at
    construction time (a t must be a real number, not a bool or a string,
    and lie in the admissible range of the preprocessed direction), so a
    config that exists can always be run.  The preprocessed
    direction is built once, there, and every metric of the run is built on
    that one object, so they share one sup norm.  out/fmt describe where a
    report should go; run_experiment itself never writes.
    """

    kind: str
    f: SphericalFunction = None
    t_values: tuple = (0.0,)
    n: int = DEFAULT_VERTICES
    seed: int = 0
    out: str = None
    fmt: str = "csv"
    _direction: SphericalFunction = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for t in self.t_values:
            if isinstance(t, bool) or not isinstance(t, numbers.Real):
                raise ValueError(f"every t must be a number, got {t!r}")
        ts = tuple(float(t) for t in self.t_values)
        if not ts:
            raise ValueError("t_values must contain at least one value")
        if not all(math.isfinite(t) for t in ts):
            raise NonAdmissibleT(f"every t must be finite, got {ts}")
        object.__setattr__(self, "t_values", ts)
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 32 or self.n % 2 != 0:
            raise ValueError("n must be an even integer >= 32")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path or null, got {self.out!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.fmt!r}")
        if self.f is None:
            object.__setattr__(self, "f", SphericalFunction.zeros(0))
        elif not isinstance(self.f, SphericalFunction):
            object.__setattr__(self, "f", SphericalFunction.from_pairs(self.f))
        _, direction = mean_zero_decompose(self.f)
        if self.kind == "zoll_first_order":
            _, direction = parity_decompose(direction)
        elif self.kind == "pu_even":
            direction, _ = parity_decompose(direction)
        object.__setattr__(self, "_direction", direction)
        if self.kind == "baseline":
            if any(t != 0.0 for t in ts):
                raise NonAdmissibleT("baseline runs only at t = 0")
            return
        bound = max_admissible_t(direction)
        for t in ts:
            if abs(t) >= bound:
                raise NonAdmissibleT(
                    f"t = {t:.6g} outside the admissible range "
                    f"]-{bound:.6g}, {bound:.6g}[ for this direction"
                )
        if self.kind == "general_direction":
            lam, _ = mean_zero_decompose(self.f)
            for t in ts:
                if 1.0 + lam * t <= 0.0:
                    raise NonAdmissibleT(
                        f"scale factor 1 + lam*t = {1.0 + lam * t:.6g} <= 0 "
                        f"at t = {t:.6g}"
                    )

    def direction(self):
        """The mean-zero direction actually fed into the metric: the odd part
        for zoll_first_order, the even part for pu_even; the same object on
        every call."""
        return self._direction

    def to_json(self):
        return {
            "kind": self.kind,
            "f": self.f.to_json(),
            "t_values": list(self.t_values),
            "n": self.n,
            "seed": self.seed,
            "out": self.out,
            "format": self.fmt,
        }

    @classmethod
    def from_json(cls, obj):
        """Config from a to_json dict; f may also be (l, m, value) triples or None.

        The "N" and "tol" of older configs are ignored; any other key that
        to_json does not write raises ValueError, so a misspelled key cannot
        silently run the default.
        """
        unknown = sorted(set(obj) - set(CONFIG_KEYS) - {"N", "tol"})
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; expected {list(CONFIG_KEYS)}")
        f = obj.get("f")
        if isinstance(f, dict):
            f = SphericalFunction.from_json(f)
        return cls(
            kind=obj["kind"],
            f=f,
            t_values=tuple(obj.get("t_values", cls.t_values)),
            n=obj.get("n", cls.n),
            seed=obj.get("seed", cls.seed),
            out=obj.get("out"),
            fmt=obj.get("format", cls.fmt),
        )


def _metric_for(cfg, t, lam=None):
    """The row's metric: (1 + lam*t)(1 + t*f_used)^2 * g0.

    lam defaults to the mean of f for general_direction (the normalized
    variation) and to 0 for every other kind.
    """
    if lam is None:
        lam = 0.0
        if cfg.kind == "general_direction":
            lam, _ = mean_zero_decompose(cfg.f)
    return make_variation(cfg.direction(), t, lam=lam)


def _zoll_deviations(f_odd, t, axes, m):
    """Great-circle lengths of exp(2*t*f_odd) * g0 over an axis grid.

    Returns (max_u |l - 2*pi|, max_u |odd-in-t part of l|); the second is
    the t-linear (plus t-cubed) term, which the Funk transform of an odd
    function annihilates.
    """
    l_plus = _great_circle_sums(lambda p: np.exp(t * f_odd(p)), axes, m)
    l_minus = _great_circle_sums(lambda p: np.exp(-t * f_odd(p)), axes, m)
    return float(np.max(np.abs(l_plus - TWO_PI))), float(np.max(0.5 * np.abs(l_plus - l_minus)))


def _zoll_check(cfg, t):
    """First-order Zoll facts for the row at t; returns (ok, extras)."""
    f_odd = cfg.direction()
    axes = funk_scan(f_odd)[:, :3]
    m = default_circle_samples(f_odd.degree)
    dev_full, linear = _zoll_deviations(f_odd, t, axes, m)
    extras = {"zoll_linear_max": linear, "zoll_deviation": dev_full}
    ok = linear <= ZOLL_LINEAR_TOL
    if t != 0.0:
        dev_half, _ = _zoll_deviations(f_odd, 0.5 * t, axes, m)
        if dev_half > 1e-13:
            quad_ratio = dev_full / dev_half
            extras["zoll_quad_ratio"] = quad_ratio
            ok = ok and 3.5 <= quad_ratio <= 4.5
    return ok, extras


def _bound_check(cfg, t, a, systole, ratio):
    """The kind's inequality for one row; returns (ok, extras)."""
    extras = {}
    if cfg.kind == "baseline":
        return (
            abs(a - FOUR_PI) <= 1e-10
            and abs(systole - TWO_PI) <= LENGTH_TOL
            and abs(ratio - INV_PI) <= LENGTH_TOL
        ), extras

    norm2 = cfg.direction().l2_norm() ** 2
    quantitative = INV_PI + t * t * norm2 / (4.0 * math.pi**2) - RATIO_TOL

    if cfg.kind in ("proposition", "general_direction"):
        ok = ratio >= quantitative
        if t != 0.0 and norm2 > 0.0:
            ok = ok and ratio > INV_PI
        if cfg.kind == "proposition":
            ok = ok and systole <= TWO_PI + LENGTH_TOL
        return ok, extras

    if cfg.kind == "zoll_first_order":
        return _zoll_check(cfg, t)

    if cfg.kind == "pu_even":
        ok = ratio >= INV_PI - RATIO_TOL
        if abs(t) >= 0.05:
            ok = ok and ratio - INV_PI > 0.0
        return ok, extras

    if cfg.kind == "scale_invariance":
        deviations = []
        for mu in SCALE_FACTORS:
            # mu * g_t through the lam-direction: 1 + lam*t = mu.  At t = 0
            # the direction drops out and mu rides on t = 1 directly.
            if t != 0.0:
                g_mu = _metric_for(cfg, t, lam=(mu - 1.0) / t)
            else:
                g_mu = make_variation(
                    SphericalFunction.zeros(0), 1.0, lam=mu - 1.0
                )
            report_mu = estimate_systole(g_mu, n=cfg.n, seed=cfg.seed)
            ratio_mu = systolic_ratio(area(g_mu), report_mu.systole)
            deviations.append(abs(ratio_mu - ratio))
        extras["scale_ratio_dev"] = max(deviations)
        return max(deviations) <= SCALE_TOL, extras

    # conjecture_probe: emit, never assert.
    even, _ = parity_decompose(cfg.direction())
    denom = t * t * even.l2_norm() ** 2
    probe = (math.pi * ratio - 1.0) / denom if denom > 0.0 else math.nan
    extras["conjecture_probe"] = probe
    return True, extras


def run_experiment(cfg):
    """Run every t of the config and return one ResultRow per t, in order."""
    rows = []
    for t in cfg.t_values:
        g = _metric_for(cfg, t)
        a = area(g)
        report = estimate_systole(g, n=cfg.n, seed=cfg.seed)
        systole = report.systole
        ratio = systolic_ratio(a, systole)
        ok, extras = _bound_check(cfg, t, a, systole, ratio)
        rows.append(
            ResultRow(
                t=t,
                area=a,
                systole=systole,
                ratio=ratio,
                ratio_minus_inv_pi=ratio - INV_PI,
                two_pi_minus_systole=TWO_PI - systole,
                curvature_min=report.curvature_min,
                bound_check=ok,
                warnings=tuple(report.warnings),
                extras=extras,
            )
        )
    return rows


# Every CSV and JSON file of the package is rendered and written here.


def _format_cell(value):
    if isinstance(value, np.generic):
        # repr(np.float64(x)) is "np.float64(x)" under numpy 2
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # str and repr agree on Python floats


def _csv_text(header, rows):
    """CSV text of a header and rows of cells, each cell through _format_cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_format_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _nan_to_null(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_to_null(v) for v in value]
    return value


def _json_text(value):
    """Indented JSON text with every NaN written as null."""
    return json.dumps(_nan_to_null(value), indent=2) + "\n"


def _write_text(path, text, what):
    """Write text to path; an OSError becomes IOFailure."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(f"could not write {what} to {path}: {exc}") from exc
    return path


def render_report(rows, fmt="csv"):
    """Report text for the rows; deterministic byte-for-byte."""
    if not rows:
        raise ValueError("no rows to report")
    records = [row.as_record() for row in rows]
    if fmt == "csv":
        return _csv_text(CSV_COLUMNS, ([r[c] for c in CSV_COLUMNS] for r in records))
    if fmt == "json":
        return _json_text(records)
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def emit_report(rows, path, fmt="csv"):
    """Write the report to path; identical inputs give identical bytes."""
    _write_text(path, render_report(rows, fmt=fmt), "report")


def _funk_scan_csv(f):
    return _csv_text(("ux", "uy", "uz", "funk_value"), funk_scan(f))


def write_funk_scan(f, path):
    """Dump the Funk scan of f as CSV rows (ux, uy, uz, funk_value)."""
    return _write_text(path, _funk_scan_csv(f), "Funk scan")
