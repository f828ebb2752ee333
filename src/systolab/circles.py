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
from scipy.special import eval_legendre

from .errors import SystolabError
from .harmonics import (
    FOUR_PI,
    SphericalFunction,
    build_quadrature,
    normalize_points,
    sh_degrees,
)
from .metric import DiscreteClosedCurve, _polish_extrema, circle_frame

TWO_PI = 2.0 * math.pi


def default_circle_samples(degree_max):
    """Default number of circle sample points: max(256, 4L + 8)."""
    return max(256, 4 * degree_max + 8)


class CircleSpec:
    """Circle of S^2: axis u and signed offset s in [-1, 1].

    s = 0 is the great circle gamma(u); |s| = 1 degenerates to the point
    +/-u; in between, the geometric radius is sqrt(1 - s^2).
    """

    __slots__ = ("axis", "offset")

    def __init__(self, axis, offset=0.0):
        self.axis = normalize_points(np.asarray(axis, dtype=float))
        s = float(offset)
        if not -1.0 <= s <= 1.0:
            raise ValueError(f"offset must lie in [-1, 1], got {s}")
        self.offset = s

    @property
    def radius(self):
        return math.sqrt(max(0.0, 1.0 - self.offset**2))

    @property
    def is_point(self):
        return abs(self.offset) == 1.0

    def points(self, m, phase=0.0):
        """m points uniformly spaced in arc length, screw-rule order."""
        u = self.axis
        if self.is_point:
            tip = u if self.offset > 0 else -u
            return np.tile(tip, (m, 1))
        e1, e2 = circle_frame(u)
        phi = phase + TWO_PI * np.arange(m) / m
        r = self.radius
        return (
            self.offset * u
            + r * np.outer(np.cos(phi), e1)
            + r * np.outer(np.sin(phi), e2)
        )

    def __repr__(self):
        return f"CircleSpec(axis={np.round(self.axis, 6)}, offset={self.offset})"


def sample_circle(spec, m):
    """Discretize a circle into a closed curve of m uniformly spaced vertices."""
    if m < 3:
        raise ValueError(f"need at least 3 sample points, got {m}")
    return DiscreteClosedCurve(spec.points(m))


def great_circle_points(u, m, phase=0.0):
    """Sample points of the great circle gamma(u)."""
    return CircleSpec(u, 0.0).points(m, phase=phase)


def _great_circle_batch(axes, m):
    """Points of gamma(u) for every axis in a batch: shape (nu, m, 3)."""
    e1, e2 = circle_frame(np.atleast_2d(np.asarray(axes, dtype=float)))
    phi = TWO_PI * np.arange(m) / m
    return (
        np.cos(phi)[None, :, None] * e1[:, None, :]
        + np.sin(phi)[None, :, None] * e2[:, None, :]
    )


def funk_transform(f, u, m=None):
    """Arc-length integral of f over the great circle gamma(u).

    Periodic trapezoid with m nodes; f restricted to a great circle is a
    trigonometric polynomial of degree <= deg(f), so m >= 2*deg(f) + 2 makes
    the sum exact up to rounding.
    """
    m = default_circle_samples(f.degree) if m is None else m
    if m < 2 * f.degree + 2:
        raise ValueError(f"m={m} too small for degree {f.degree} (need >= {2 * f.degree + 2})")
    pts = great_circle_points(u, m)
    return float(np.sum(f(pts)) * TWO_PI / m)


def funk_transform_many(f, axes, m=None):
    """funk_transform evaluated for a whole batch of axes at once."""
    m = default_circle_samples(f.degree) if m is None else m
    pts = _great_circle_batch(axes, m)
    nu = pts.shape[0]
    vals = f(pts.reshape(-1, 3)).reshape(nu, m)
    return np.sum(vals, axis=1) * TWO_PI / m


def funk_image(f):
    """The Funk transform of f as a function of the axis.

    Diagonal action on harmonics: degree l is scaled by 2*pi*P_l(0); odd
    degrees vanish.
    """
    ls = sh_degrees(f.degree)
    scale = TWO_PI * eval_legendre(ls, 0.0)
    return SphericalFunction(f.coeffs * scale)


def great_circle_length(g, u, m=None):
    """Length of the great circle gamma(u) under g, spectrally.

    Equals sqrt(1 + lam*t) * (2*pi + t * Funk(f)(u)); with lam = 0 this is
    the exact first-order length identity.
    """
    m = default_circle_samples(g.f.degree) if m is None else m
    pts = great_circle_points(u, m)
    return float(np.sum(g.w(pts)) * TWO_PI / m)


def great_circle_length_many(g, axes, m=None):
    """Batched great-circle lengths for many axes."""
    m = default_circle_samples(g.f.degree) if m is None else m
    pts = _great_circle_batch(axes, m)
    nu = pts.shape[0]
    w = g.w(pts.reshape(-1, 3)).reshape(nu, m)
    return np.sum(w, axis=1) * TWO_PI / m


def average_great_circle_length(g, q=None, m=None):
    """Mean over axes of the great-circle length, (1/4pi) integral dv(u).

    For lam = 0 and mean-zero f this is exactly 2*pi: averaging the length
    identity kills the Funk term because the Funk image inherits mean zero.
    """
    if q is None:
        q = build_quadrature(2 * g.f.degree + 2)
    lengths = great_circle_length_many(g, q.nodes, m=m)
    return float(q.weights @ lengths) / FOUR_PI


def verify_tangent_bundle_identity(g, q=None, m=None):
    """Both evaluation orders of the unit-tangent-bundle average.

    Fiber-first: 2*pi * integral of w dv0 (each fiber contributes the same
    circle of directions).  Base-first: integral over axes of the length of
    gamma(u).  Both equal 8*pi^2 for lam = 0 and mean-zero f.
    """
    if q is None:
        q = build_quadrature(2 * g.f.degree + 2)
    w_nodes = g.w(q.nodes)
    lhs = TWO_PI * float(q.weights @ w_nodes)
    lengths = great_circle_length_many(g, q.nodes, m=m)
    rhs = float(q.weights @ lengths)
    return lhs, rhs


def find_signed_funk_axes(f, q=None):
    """Axes u0, u1 with Funk(f)(u0) < 0 < Funk(f)(u1), or None.

    Scans quadrature nodes for the extreme Funk values and polishes the
    minimum and the maximum together with sup_norm's batched Newton polish
    on the Funk image.  Returns None when the transform vanishes identically
    (max |Funk| <= 1e-9 on the scan), the odd-direction case.
    """
    scan = funk_scan(f, q=q)
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


def funk_scan(f, q=None):
    """Funk values on a node grid: array of rows (ux, uy, uz, funk_value)."""
    if q is None:
        q = build_quadrature(max(2 * f.degree + 2, 18))
    image = funk_image(f)
    vals = q.basis(image.degree) @ image.coeffs
    return np.column_stack([q.nodes, vals])
