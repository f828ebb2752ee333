#!/usr/bin/env python3
"""Conformal variations of the round sphere and their exact area law.

The laboratory studies metrics g_t = (1 + t*f)^2 * g0 with f mean-zero.
Three facts make this family a perfect test bench:

  * the area obeys A(g_t) = 4*pi + t^2 * integral(f^2) exactly — no O(t^3)
    term, because the cross term integrates to zero,
  * the admissible range of t is computable (1 + t*f must stay positive),
  * curvature has an exact formula in w, grad w and lap0 w, all of them
    band-limited, so positivity and Gauss-Bonnet can be checked on every
    metric the experiments touch.

A constant component of the direction does not change the shape: it rides
the separate scale factor (1 + lam*t), and the systolic ratio ignores it.
"""

import math

import numpy as np

from systolab import (
    NonAdmissibleT,
    SphericalFunction,
    area,
    gauss_bonnet_integral,
    make_variation,
    max_admissible_t,
    min_curvature,
    normalized_variation,
)

FOUR_PI = 4.0 * math.pi

f = SphericalFunction.from_pairs([(2, 1, 1.0), (4, 3, 0.5)])
print(f"direction: Y21 + 0.5*Y43,  |f|_2^2 = {f.l2_norm() ** 2}")

bound = max_admissible_t(f)
print(f"admissible range: |t| < {bound:.6f}  (1/sup|f|)")

print()
print("== the area law, exactly ==")
print(f"{'t':>8}  {'area(g_t)':>18}  {'4*pi + t^2*|f|^2':>18}  {'difference':>12}")
for t in (0.02, 0.1, 0.3, 0.7):
    g = make_variation(f, t)
    a = area(g)
    expected = FOUR_PI + t * t * f.l2_norm() ** 2
    print(f"{t:8.2f}  {a:18.14f}  {expected:18.14f}  {a - expected:12.1e}")

print()
print("== admissibility is enforced ==")
try:
    make_variation(f, bound + 0.01)
except NonAdmissibleT as exc:
    print(f"t = {bound + 0.01:.3f} rejected: {exc}")

print()
print("== curvature stays positive well inside the range ==")
print(f"{'t':>8}  {'min curvature':>14}  {'Gauss-Bonnet - 4*pi':>20}")
for t in (0.05, 0.1, 0.2):
    g = make_variation(f, t)
    print(f"{t:8.2f}  {min_curvature(g):14.6f}  {gauss_bonnet_integral(g) - FOUR_PI:20.1e}")

print()
print("== constant parts ride the scale direction ==")
mixed = SphericalFunction.from_pairs([(0, 0, 1.0), (2, 1, 1.0), (4, 3, 0.5)])
t = 0.1
g_tilde = normalized_variation(mixed, t)
lam = 1.0 / math.sqrt(FOUR_PI)
print(f"f = Y00 + Y21 + 0.5*Y43 splits into lam = {g_tilde.lam:.6f} and the mean-zero part")
print(f"area of the normalized variation = {area(g_tilde):.12f}")
print(f"(1 + lam*t) * (4*pi + t^2*|f0|^2) = {(1 + lam * t) * (FOUR_PI + t * t * f.l2_norm() ** 2):.12f}")
print("the scale factor multiplies lengths by sqrt(1 + lam*t) and areas by")
print("(1 + lam*t), so the ratio area/systole^2 is untouched — experiment")
print("kind 'scale_invariance' re-estimates the systole at three scales to")
print("confirm the whole pipeline respects this.")
