"""Acceptance gate: the ten headline checks, one pass/fail line each.

Every criterion is a separate test so the gate fails loudly and precisely;
a teardown hook prints the full scoreboard after the last criterion.  The
heavyweight systole sweep (four directions, six t values each) is computed
once and shared by criteria 6, 7 and 9.
"""

import math
import time

import numpy as np
import pytest

from systolab.harmonics import (
    SphericalFunction,
    build_quadrature,
    sh_size,
)
from systolab.metric import (
    area,
    gauss_bonnet_integral,
    make_variation,
    sup_norm,
    systolic_ratio,
)
from systolab.circles import (
    average_great_circle_length,
    circle_points,
    funk_transform,
    great_circle_length,
    verify_tangent_bundle_identity,
)
from systolab.geodesics import (
    estimate_systole,
    integrate_geodesic,
    length_increase_violations,
)
from systolab.experiments import (
    ExperimentConfig,
    default_directions,
    run_experiment,
)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
INV_PI = 1.0 / math.pi
EIGHT_PI_SQ = 8.0 * math.pi**2

#: P_l(0) for even degrees; the Funk transform scales degree l by 2*pi*P_l(0).
LEGENDRE_AT_ZERO = {0: 1.0, 2: -0.5, 4: 0.375, 6: -0.3125, 8: 35.0 / 128.0}

SWEEP_T = (-0.1, -0.05, -0.02, 0.02, 0.05, 0.1)

RESULTS = []


def check(num, description, ok, detail=""):
    RESULTS.append((num, description, bool(ok), detail))
    assert ok, f"criterion {num} — {description}: {detail}"


@pytest.fixture(scope="module", autouse=True)
def scoreboard(request):
    yield
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is None:
        return
    reporter.write_line("")
    reporter.write_line("acceptance scoreboard")
    for num, description, ok, detail in RESULTS:
        mark = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        reporter.write_line(f"  criterion {num:2d} {mark}  {description}{suffix}")


def random_axis(rng):
    u = rng.standard_normal(3)
    return u / np.linalg.norm(u)


def random_direction(rng, degree=8, size=0.3):
    c = rng.standard_normal(sh_size(degree))
    c[0] = 0.0
    f = SphericalFunction(c)
    return f * (size / sup_norm(f))


@pytest.fixture(scope="module")
def sweep():
    """estimate_systole over every default direction and t, full fidelity."""
    start = time.perf_counter()
    rows = {}
    for name, f in default_directions().items():
        norm2 = f.l2_norm() ** 2
        for t in SWEEP_T:
            g = make_variation(f, t)
            a = area(g)
            report = estimate_systole(g)
            rows[(name, t)] = {
                "area": a,
                "systole": report.systole,
                "ratio": systolic_ratio(a, report.systole),
                "norm2": norm2,
            }
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_01_round_baseline():
    start = time.perf_counter()
    row = run_experiment(ExperimentConfig(kind="baseline"))[0]
    elapsed = time.perf_counter() - start
    ok = (
        abs(row.area - FOUR_PI) <= 1e-10
        and abs(row.systole - TWO_PI) <= 1e-4
        and abs(row.ratio - INV_PI) <= 1e-4
        and elapsed < 60.0
    )
    check(
        1,
        "round baseline: area 4*pi, systole 2*pi, ratio 1/pi",
        ok,
        f"area err {abs(row.area - FOUR_PI):.1e}, "
        f"systole err {abs(row.systole - TWO_PI):.1e}, "
        f"ratio err {abs(row.ratio - INV_PI):.1e}, {elapsed:.1f}s",
    )


def test_criterion_02_funk_eigenvalue_table():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    axes = np.array([random_axis(rng) for _ in range(50)])
    worst_even = 0.0
    worst_odd = 0.0
    for l in range(9):
        for m in range(-l, l + 1):
            ylm = SphericalFunction.harmonic(l, m)
            got = funk_transform(ylm, axes)
            if l % 2 == 0:
                expected = TWO_PI * LEGENDRE_AT_ZERO[l] * ylm(axes)
                worst_even = max(worst_even, float(np.max(np.abs(got - expected))))
            else:
                worst_odd = max(worst_odd, float(np.max(np.abs(got))))
    elapsed = time.perf_counter() - start
    ok = worst_even <= 1e-9 and worst_odd <= 1e-12 and elapsed < 10.0
    check(
        2,
        "Funk transform diagonal: 2*pi*P_l(0) on degree l, zero on odd",
        ok,
        f"even err {worst_even:.1e}, odd err {worst_odd:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_area_law():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        f = random_direction(rng)
        t = rng.uniform(-0.5, 0.5)
        g = make_variation(f, t)
        # Parseval: integral of f^2 is the sum of squared coefficients
        expected = FOUR_PI + t * t * float(np.sum(f.coeffs**2))
        worst = max(worst, abs(area(g) - expected))
    check(
        3,
        "area law: area(g_t) = 4*pi + t^2 * integral(f^2), 20 random (f, t)",
        worst <= 1e-10,
        f"worst err {worst:.1e}",
    )


def test_criterion_04_length_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        f = random_direction(rng)
        t = rng.uniform(-0.5, 0.5)
        g = make_variation(f, t)
        u = random_axis(rng)
        got = great_circle_length(g, u)
        expected = TWO_PI + t * funk_transform(f, u)
        worst = max(worst, abs(got - expected))
    check(
        4,
        "length identity: l(gamma_u) = 2*pi + t*Funk(f)(u), 100 random (f, t, u)",
        worst <= 1e-10,
        f"worst err {worst:.1e}",
    )


def test_criterion_05_averaging_identities():
    rng = np.random.default_rng(505)
    worst_mean = 0.0
    worst_tangent = 0.0
    directions = list(default_directions().values()) + [random_direction(rng)]
    for f in directions:
        g = make_variation(f, 0.1)
        worst_mean = max(
            worst_mean, abs(average_great_circle_length(g) - TWO_PI)
        )
        lhs, rhs = verify_tangent_bundle_identity(g)
        worst_tangent = max(
            worst_tangent, abs(lhs - EIGHT_PI_SQ), abs(rhs - EIGHT_PI_SQ)
        )
    ok = worst_mean <= 1e-8 and worst_tangent <= 1e-7
    check(
        5,
        "averaging: mean circle length 2*pi, tangent-bundle average 8*pi^2",
        ok,
        f"mean err {worst_mean:.1e}, tangent err {worst_tangent:.1e}",
    )


def test_criterion_06_systole_upper_bound(sweep):
    rows, elapsed = sweep
    worst = max(row["systole"] - TWO_PI for row in rows.values())
    ok = worst <= 1e-4 and elapsed < 600.0
    check(
        6,
        "systole <= 2*pi across four directions, t in +/-{0.02, 0.05, 0.1}",
        ok,
        f"worst excess {worst:.1e}, sweep {elapsed:.0f}s",
    )


def test_criterion_07_ratio_lower_bound(sweep):
    rows, _ = sweep
    worst_margin = math.inf
    strict = True
    for (name, t), row in rows.items():
        floor = INV_PI + t * t * row["norm2"] / (4.0 * math.pi**2) - 1e-6
        worst_margin = min(worst_margin, row["ratio"] - floor)
        if t != 0.0:
            strict = strict and row["ratio"] > INV_PI
    ok = worst_margin >= 0.0 and strict
    check(
        7,
        "ratio >= 1/pi + t^2*|f|^2/(4*pi^2), strict above 1/pi for t != 0",
        ok,
        f"worst margin {worst_margin:.2e}",
    )


def test_criterion_08_zoll_first_order():
    f = SphericalFunction.harmonic(3, 0)
    q = build_quadrature(18)
    axes = q.nodes
    # Standard family: circle lengths are 2*pi + t*Funk(f) exactly, and the
    # Funk transform of an odd function vanishes, so the deviation itself
    # is the t-linear term.
    worst_linear = 0.0
    for t in (0.1, 0.05):
        g = make_variation(f, t)
        lengths = great_circle_length(g, axes)
        worst_linear = max(worst_linear, float(np.max(np.abs(lengths - TWO_PI))))
    # Exponential family exp(2tf)*g0: deviation is genuinely second order,
    # so halving t divides it by ~4.
    m = 256
    step = TWO_PI / m

    def max_deviation(t):
        dev = 0.0
        for u in axes:
            vals = f(circle_points(u, 0.0, m))
            dev = max(dev, abs(step * float(np.sum(np.exp(t * vals))) - TWO_PI))
        return dev

    quad_ratio = max_deviation(0.1) / max_deviation(0.05)
    ok = worst_linear <= 1e-10 and 3.5 <= quad_ratio <= 4.5
    check(
        8,
        "odd direction: circle lengths lose the t-linear term, deviation ~ t^2",
        ok,
        f"linear err {worst_linear:.1e}, t^2 ratio {quad_ratio:.3f}",
    )


def test_criterion_09_even_directions_keep_the_bound(sweep):
    rows, _ = sweep
    worst_margin = math.inf
    for name in ("Y20", "Y21+0.5*Y43"):
        for t in (-0.1, -0.05, 0.05, 0.1):
            margin = rows[(name, t)]["ratio"] - INV_PI
            worst_margin = min(worst_margin, margin)
    ok = worst_margin >= -1e-6 and worst_margin > 0.0
    check(
        9,
        "even directions: ratio >= 1/pi with positive margin at t != 0",
        ok,
        f"worst margin {worst_margin:.2e}",
    )


def test_criterion_10_engine_health():
    # Fourth-order convergence of the geodesic integrator: endpoint error
    # against a fine-step reference drops ~16x when the step halves.
    f = SphericalFunction.from_pairs([(2, 1, 1.0), (3, 0, 0.4)])
    g = make_variation(f, 0.1)
    p = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 0.8, 0.6])
    reference = integrate_geodesic(g, p, v, 2.0, h=2.5e-4).endpoint
    err = {}
    for h in (4e-3, 2e-3):
        err[h] = float(
            np.linalg.norm(integrate_geodesic(g, p, v, 2.0, h=h).endpoint - reference)
        )
    order_ratio = err[4e-3] / err[2e-3]
    richardson_ok = 11.0 <= order_ratio <= 22.0

    # No Birkhoff pass may ever have increased a length (counted across the
    # entire session, including the sweep fixture).
    violations = length_increase_violations()

    # Gauss-Bonnet on every default test metric.
    worst_gb = 0.0
    for f in default_directions().values():
        for t in (-0.1, 0.1):
            worst_gb = max(
                worst_gb,
                abs(gauss_bonnet_integral(make_variation(f, t)) - FOUR_PI),
            )
    ok = richardson_ok and violations == 0 and worst_gb <= 1e-6
    check(
        10,
        "engine health: RK4 order, zero length increases, Gauss-Bonnet 4*pi",
        ok,
        f"order ratio {order_ratio:.1f}, violations {violations}, "
        f"Gauss-Bonnet err {worst_gb:.1e}",
    )
