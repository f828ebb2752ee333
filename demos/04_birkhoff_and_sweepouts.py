#!/usr/bin/env python3
"""Curve shortening and minimax sweepouts: geodesics from first principles.

Two engines produce closed geodesics here:

  * birkhoff_shorten moves one closed polygon downhill in length, one
    red-black half-pass at a time.  Every accepted pass is length-non-
    increasing by construction, so whatever it converges to certifies an
    upper bound for the length of some closed geodesic.
  * tighten_sweepout tightens a whole one-parameter family, shortening
    every member.  Its maximum length (the family's width) can only
    decrease, and the minimax principle says the width of a family that
    sweeps out the sphere bounds the shortest closed geodesic from above —
    on positively curved spheres, the systole.  The demo builds its two
    families from circle_points: F, the great circles around horizontal
    axes turning a half turn, and G(pole), the stack of circles around the
    pole closed up by point curves along a half meridian.
    estimate_systole uses no family: its systole is the shortest of its
    seed circles' geodesics.

The round sphere makes the expected answers exact: great circles are
geodesics of length 2*pi, a zonal metric (1 + t*Y20)^2 * g0 keeps the
equator as a geodesic with length 2*pi + t*Funk(Y20)(pole), and a tilted
circle released on the zonal metric slides into the equator.
"""

import math

import numpy as np

from systolab import (
    DiscreteClosedCurve,
    SphericalFunction,
    birkhoff_shorten,
    circle_points,
    curve_length,
    make_variation,
    tighten_sweepout,
)

TWO_PI = 2.0 * math.pi
Y20_POLE = 0.5 * math.sqrt(5.0 / math.pi)
FUNK_Y20_POLE = -math.pi * Y20_POLE          # 2*pi * P_2(0) * Y20(pole)

t = 0.1
f = SphericalFunction.harmonic(2, 0)
g = make_variation(f, t)
print(f"zonal metric (1 + {t}*Y20)^2 * g0")

print()
print("== one curve: the slide to the equator ==")
tilt = 0.4
axis = np.array([math.sin(tilt), 0.0, math.cos(tilt)])
start = DiscreteClosedCurve(circle_points(axis, 0.0, 128))
print(f"start: great circle tilted {tilt} rad, length under g = {curve_length(g, start):.9f}")
result = birkhoff_shorten(g, start)
print(f"after {result.passes} passes: length = {result.length:.12f}")
print(f"expected equator length 2*pi + t*Funk(Y20)(pole) = {TWO_PI + t * FUNK_Y20_POLE:.12f}")
print(f"pass residual = {result.residual:.1e}, collapsed = {result.collapsed}")
zmax = np.max(np.abs(result.curve.vertices[:, 2]))
print(f"final curve is the equator: max |z| over vertices = {zmax:.1e}")

print()
print("== a family: minimax width of the half-turn sweepout ==")
N, n = 33, 128
turn = [(math.cos(a), math.sin(a), 0.0) for a in math.pi * np.arange(N) / (N - 1)]
family_f = [DiscreteClosedCurve(c) for c in circle_points(turn, 0.0, n)]
outcome = tighten_sweepout(g, family_f, passes=60)
print(f"family F: {len(family_f)} great circles rotating a half turn")
print(f"width after tightening = {outcome.width:.9f}")
print("the width hugs the longest meridian-like member — the minimax level —")
print("while the systole lives at the equator, strictly below:")
print(f"  width - equator length = {outcome.width - (TWO_PI + t * FUNK_Y20_POLE):.6f}")
if outcome.witness is not None:
    print(f"witness geodesic length  = {outcome.witness.length:.12f} (residual {outcome.witness.residual:.1e})")

print()
print("== degenerate members are road, not obstacle ==")
pole = np.array([0.0, 0.0, 1.0])
stack = circle_points(pole, -1.0 + 2.0 * np.arange(25) / 24, n)  # s = -1 .. 1, s = 0 included
meridian = [(math.sin(a), 0.0, math.cos(a)) for a in math.pi * np.arange(1, 9) / 9]
family_g = ([DiscreteClosedCurve(c) for c in stack]
            + [DiscreteClosedCurve.point(p, n) for p in meridian])
points = sum(1 for c in family_g if c.is_point)
print(f"family G(pole): {len(family_g)} members, {points} of them point curves")
outcome_g = tighten_sweepout(g, family_g, passes=60)
print(f"width = {outcome_g.width:.12f}  — the equator again, because the")
print("s-stack of circles around the pole must pass through it.")

print()
print("collapse detection: a small circle shrinks to a point")
small = DiscreteClosedCurve(
    np.column_stack([
        0.4 * np.cos(np.linspace(0, TWO_PI, 64, endpoint=False)),
        0.4 * np.sin(np.linspace(0, TWO_PI, 64, endpoint=False)),
        np.full(64, math.sqrt(1 - 0.16)),
    ])
)
collapsed = birkhoff_shorten(g, small)
print(f"collapsed = {collapsed.collapsed}, final length = {collapsed.length:.2e}")
