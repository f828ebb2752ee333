#!/usr/bin/env python3
"""The Funk transform and the first-order length identities.

The length of the great circle gamma(u) under g_t = (1 + t*f)^2 * g0 is

    l_t(u) = 2*pi + t * Funk(f)(u),        exactly, for every admissible t,

where Funk(f)(u) is the arc-length integral of f over gamma(u).  The Funk
transform acts diagonally on harmonics — degree l is scaled by 2*pi*P_l(0)
— and annihilates every odd degree.  Averaging the identity over all axes
gives back 2*pi (the Funk image of a mean-zero function is mean-zero), and
integrating over the unit tangent bundle gives 8*pi^2 in both evaluation
orders.  These identities are the exactly-known layer the geodesic engine
is validated against.
"""

import math

import numpy as np

from systolab import (
    SphericalFunction,
    average_great_circle_length,
    build_quadrature,
    find_signed_funk_axes,
    funk_transform,
    great_circle_length,
    make_variation,
    verify_tangent_bundle_identity,
)

TWO_PI = 2.0 * math.pi
LEGENDRE_AT_ZERO = {0: 1.0, 2: -0.5, 4: 0.375, 6: -0.3125, 8: 35.0 / 128.0}

rng = np.random.default_rng(7)
axes = rng.standard_normal((40, 3))
axes /= np.linalg.norm(axes, axis=1, keepdims=True)

print("== diagonal action on harmonics ==")
print(f"{'l':>2}  {'2*pi*P_l(0)':>12}  {'measured ratio':>16}  {'worst error':>12}")
for l in (0, 2, 4, 6, 8):
    ylm = SphericalFunction.harmonic(l, min(l, 2))
    got = funk_transform(ylm, axes)
    expected = TWO_PI * LEGENDRE_AT_ZERO[l] * ylm(axes)
    scale = TWO_PI * LEGENDRE_AT_ZERO[l]
    mask = np.abs(ylm(axes)) > 1e-3
    ratio = np.mean(got[mask] / ylm(axes)[mask])
    print(f"{l:2d}  {scale:12.6f}  {ratio:16.10f}  {np.max(np.abs(got - expected)):12.1e}")

print()
print("odd degrees vanish:")
for l in (1, 3, 5, 7):
    ylm = SphericalFunction.harmonic(l, 0)
    print(f"  max |Funk(Y{l}0)| over 40 axes = {np.max(np.abs(funk_transform(ylm, axes))):.1e}")

print()
print("== the length identity, exactly ==")
f = SphericalFunction.from_pairs([(2, 0, 1.0), (3, 1, 0.6), (4, 2, 0.3)])
t = 0.17
g = make_variation(f, t)
worst = 0.0
for u in axes[:10]:
    got = great_circle_length(g, u)
    expected = TWO_PI + t * funk_transform(f, u)
    worst = max(worst, abs(got - expected))
print(f"max |l_t(u) - 2*pi - t*Funk(f)(u)| over 10 axes = {worst:.1e}")

print()
print("== averaging identities ==")
mean_len = average_great_circle_length(g)
print(f"mean great-circle length = {mean_len:.15f}   (2*pi = {TWO_PI:.15f})")
lhs, rhs = verify_tangent_bundle_identity(g)
print(f"tangent-bundle average, fiber-first = {lhs:.12f}")
print(f"tangent-bundle average, base-first  = {rhs:.12f}   (8*pi^2 = {8 * math.pi ** 2:.12f})")

print()
print("== where the transform is signed ==")
pair = find_signed_funk_axes(f)
if pair is not None:
    u0, u1 = pair
    print(f"Funk(f)({np.array2string(u0, precision=3)}) = {funk_transform(f, u0):+.6f} < 0")
    print(f"Funk(f)({np.array2string(u1, precision=3)}) = {funk_transform(f, u1):+.6f} > 0")
    print("so for either sign of t some great circle is shorter than 2*pi —")
    print("the springboard for every systole bound downstream.")
