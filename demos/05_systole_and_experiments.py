#!/usr/bin/env python3
"""The full pipeline: systole estimation and the experiment driver.

estimate_systole combines everything upstream: it shortens a pool of seed
great circles — one at each axis where the Funk transform is extremal, the
rest random — polishes them into genuine discrete geodesics, and reports
the shortest of them together with the curvature floor and any warnings.

run_experiment wraps that into reproducible sweeps with a pass/fail bound
per row — the same table the command line prints:

    systolab proposition --t 0.05,-0.05 --out report.csv

This demo uses reduced solver settings (n=32 vertices per curve) so it
finishes in seconds; the acceptance tests run the full-fidelity version.
"""

import math

from systolab import (
    ExperimentConfig,
    SphericalFunction,
    area,
    estimate_systole,
    make_variation,
    render_report,
    run_experiment,
    systolic_ratio,
)

TWO_PI = 2.0 * math.pi
INV_PI = 1.0 / math.pi
Y20_POLE = 0.5 * math.sqrt(5.0 / math.pi)

print("== estimate_systole on a zonal metric ==")
t = 0.1
g = make_variation(SphericalFunction.harmonic(2, 0), t)
report = estimate_systole(g, n=32, seed=3)
print(f"systole estimate = {report.systole:.12f}")
print(f"exact equator length = {TWO_PI - t * math.pi * Y20_POLE:.12f}")
print(f"curvature min = {report.curvature_min:.6f}, warnings = {list(report.warnings)}")
print("candidate pool (source, length):")
for tag, length in report.candidates[:6]:
    print(f"  {tag:22s} {length:.9f}")
ratio = systolic_ratio(area(g), report.systole)
print(f"systolic ratio = {ratio:.9f}  vs round value 1/pi = {INV_PI:.9f}")

print()
print("== a reproducible experiment sweep ==")
cfg = ExperimentConfig(
    kind="proposition",
    f=SphericalFunction.harmonic(2, 0),
    t_values=(-0.1, -0.05, 0.05, 0.1),
    n=32, seed=3,
)
rows = run_experiment(cfg)
for row in rows:
    print(
        f"t={row.t:+.2f}  ratio={row.ratio:.9f}  "
        f"margin over 1/pi = {row.ratio_minus_inv_pi:+.2e}  "
        f"bound {'PASS' if row.bound_check else 'FAIL'}"
    )

print()
print("the same rows as the CSV report (byte-deterministic):")
print(render_report(rows, fmt="csv"))

print("== the zoll check: odd directions lose their first order ==")
zoll = run_experiment(
    ExperimentConfig(
        kind="zoll_first_order",
        f=SphericalFunction.harmonic(3, 0),
        t_values=(0.1,),
        n=32, seed=3,
    )
)[0]
print(f"t-linear term of circle lengths: {zoll.extras['zoll_linear_max']:.1e}")
print(f"deviation ratio at t vs t/2:     {zoll.extras['zoll_quad_ratio']:.4f}  (pure second order gives 4)")
print(f"bound {'PASS' if zoll.bound_check else 'FAIL'}")
