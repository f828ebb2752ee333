"""Circles of the round sphere and the Funk transform.

The circle with axis u and offset s in [-1, 1] is the intersection of the
sphere with the plane <p, u> = s: a great circle for s = 0, shrinking to the
point +/-u at s = +/-1.  Orientation follows the screw rule around u.

The Funk transform of f at u is the arc-length integral of f over the great
circle with axis u.  On band-limited functions it acts diagonally: a
degree-l harmonic is scaled by 2*pi*P_l(0), which kills every odd degree.
Periodic trapezoid sums evaluate all circle integrals spectrally, so the
exact length identity l_g(gamma(u)) = 2*pi + t * Funk(f)(u) is testable at
close to machine precision.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SystolabError
from .harmonics import (
    FOUR_PI,
    SphericalFunction,
    build_quadrature,
    normalize_points,
    sh_degrees,
)
from .metric import _polish_extrema, circle_frame

TWO_PI = 2.0 * math.pi


def default_circle_samples(degree_max):
    """Default number of circle sample points: max(256, 4L + 8)."""
    return max(256, 4 * degree_max + 8)


def circle_points(axes, offsets, m):
    """m points of each circle gamma(u, s), uniformly spaced in arc length.

    axes is one axis (3,) or an array (..., 3) of them; offsets, each in
    [-1, 1], broadcast against the leading shape of axes.  Returns the points
    with shape (broadcast leading shape, m, 3) in screw-rule order around u;
    |s| = 1 gives m copies of +/-u.
    """
    u = normalize_points(axes)
    s = np.asarray(offsets, dtype=float)
    if not np.all(np.abs(s) <= 1.0):
        raise ValueError(f"offsets must lie in [-1, 1], got {s}")
    e1, e2 = circle_frame(u)
    phi = TWO_PI * np.arange(m) / m
    r = np.sqrt(np.maximum(0.0, 1.0 - s**2))[..., None, None]
    return (
        s[..., None, None] * u[..., None, :]
        + r * (np.cos(phi)[:, None] * e1[..., None, :])
        + r * (np.sin(phi)[:, None] * e2[..., None, :])
    )


def _great_circle_sums(func, axes, m):
    """Trapezoid sums of func over the great circles gamma(u), m nodes each.

    axes is one axis (3,), giving a Python float, or a stack (..., 3),
    giving an array (...); one axis sums exactly as the stack u[None] does.
    """
    pts = circle_points(np.atleast_2d(axes), 0.0, m)
    sums = np.sum(func(pts.reshape(-1, 3)).reshape(pts.shape[:-1]), axis=-1) * TWO_PI / m
    return float(sums[0]) if np.ndim(axes) == 1 else sums


def funk_transform(f, axes):
    """Arc-length integral of f over the great circle gamma(u) of each axis.

    Periodic trapezoid with default_circle_samples(deg f) >= 2*deg(f) + 2
    nodes; f restricted to a great circle is a trigonometric polynomial of
    degree <= deg(f), so the sum is exact up to rounding.  One axis (3,)
    gives a float, a stack (..., 3) an array (...).
    """
    return _great_circle_sums(f, axes, default_circle_samples(f.degree))


def funk_image(f):
    """The Funk transform of f as a function of the axis.

    Diagonal action on harmonics: degree l is scaled by 2*pi*P_l(0); odd
    degrees vanish.  P_l(0) = -P_{l-2}(0) (l - 1) / l from P_0(0) = 1,
    which is exact in binary through l = 8.
    """
    legendre_at_zero = np.zeros(f.degree + 1)
    legendre_at_zero[0] = 1.0
    for l in range(2, f.degree + 1, 2):
        legendre_at_zero[l] = -legendre_at_zero[l - 2] * (l - 1) / l
    return SphericalFunction(f.coeffs * (TWO_PI * legendre_at_zero[sh_degrees(f.degree)]))


def great_circle_length(g, axes):
    """Length under g of the great circle gamma(u) of each axis, spectrally.

    Equals sqrt(1 + lam*t) * (2*pi + t * Funk(f)(u)); with lam = 0 this is
    the exact first-order length identity.  One axis (3,) gives a float, a
    stack (..., 3) an array (...).
    """
    return _great_circle_sums(g.w, axes, default_circle_samples(g.f.degree))


def average_great_circle_length(g):
    """Mean over axes of the great-circle length, (1/4pi) integral dv(u).

    For lam = 0 and mean-zero f this is exactly 2*pi: averaging the length
    identity kills the Funk term because the Funk image inherits mean zero.
    """
    q = g.quadrature
    return float(q.weights @ great_circle_length(g, q.nodes)) / FOUR_PI


def verify_tangent_bundle_identity(g):
    """Both evaluation orders of the unit-tangent-bundle average.

    Fiber-first: 2*pi * integral of w dv0 (each fiber contributes the same
    circle of directions).  Base-first: integral over axes of the length of
    gamma(u).  Both equal 8*pi^2 for lam = 0 and mean-zero f.
    """
    q = g.quadrature
    lhs = TWO_PI * float(q.weights @ g.w_nodes(q))
    rhs = float(q.weights @ great_circle_length(g, q.nodes))
    return lhs, rhs


def find_signed_funk_axes(f):
    """Axes u0, u1 with Funk(f)(u0) < 0 < Funk(f)(u1), or None.

    Scans the nodes of funk_scan for the extreme Funk values and polishes
    the minimum and the maximum together with sup_norm's batched Newton
    polish on the Funk image.  Returns None when the transform vanishes
    identically (max |Funk| <= 1e-9 on the scan), the odd-direction case.
    """
    scan = funk_scan(f)
    nodes, vals = scan[:, :3], scan[:, 3]
    if float(np.max(np.abs(vals))) <= 1e-9:
        return None
    starts = nodes[[np.argmin(vals), np.argmax(vals)]]
    (u0, u1), (lo, hi) = _polish_extrema(funk_image(f), starts, [-1.0, 1.0])
    if not lo < 0.0 < hi:
        raise SystolabError(
            f"sign dichotomy violated: refined Funk extremes {lo:.3e}, {hi:.3e}"
        )
    return u0, u1


def funk_scan(f):
    """Funk values on the nodes of a band quadrature: rows (ux, uy, uz, funk_value).

    The quadrature is build_quadrature(max(2 deg f + 2, 18)); its transform
    evaluates the Funk image at every node.
    """
    q = build_quadrature(max(2 * f.degree + 2, 18))
    return np.column_stack([q.nodes, q.synthesize(funk_image(f).coeffs)])
