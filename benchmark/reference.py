"""Reference evaluator used by every check of the benchmark.

Nothing here imports systolab.  Real spherical harmonics come from
``scipy.special.sph_harm_y``, the Funk eigenvalues from
``scipy.special.eval_legendre``, and integrals from a Gauss-Legendre x
uniform-longitude product rule built with numpy.  Coefficient vectors use the
flat layout of the package's data format: index l*l + l + m for -l <= m <= l.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_legendre, sph_harm_y

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
SQRT2 = math.sqrt(2.0)


def degree_of(coeffs):
    return math.isqrt(len(coeffs)) - 1


def _angles(points):
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    theta = np.arctan2(np.hypot(p[:, 0], p[:, 1]), p[:, 2])
    phi = np.mod(np.arctan2(p[:, 1], p[:, 0]), TWO_PI)
    return theta, phi


def real_harmonic(l, m, points):
    """Real orthonormal Y_lm at unit points (n, 3).

    sqrt(2) * (-1)^m times the real part of the complex harmonic for m > 0,
    times the imaginary part of the order-|m| harmonic for m < 0.
    """
    theta, phi = _angles(points)
    y = sph_harm_y(l, abs(m), theta, phi)
    if m == 0:
        return y.real
    sign = -1.0 if m % 2 else 1.0
    return SQRT2 * sign * (y.real if m > 0 else y.imag)


def evaluate(coeffs, points):
    """Sum of coeffs[l*l + l + m] * Y_lm at unit points (n, 3)."""
    c = np.asarray(coeffs, dtype=float)
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    out = np.zeros(p.shape[0])
    for l in range(degree_of(c) + 1):
        for m in range(-l, l + 1):
            k = l * l + l + m
            if c[k] != 0.0:
                out += c[k] * real_harmonic(l, m, p)
    return out


def funk_coeffs(coeffs):
    """Coefficients of the Funk transform: degree l scaled by 2*pi*P_l(0)."""
    c = np.asarray(coeffs, dtype=float)
    ls = np.repeat(np.arange(degree_of(c) + 1), 2 * np.arange(degree_of(c) + 1) + 1)
    return c * TWO_PI * eval_legendre(ls, 0.0)


def z_reflection_signs(degree):
    """Signs that map the coefficients of f to those of f(x, y, -z).

    Y_lm(x, y, -z) = (-1)^(l + |m|) Y_lm(x, y, z).
    """
    return np.concatenate([(-1.0) ** (l + np.abs(np.arange(-l, l + 1)))
                           for l in range(degree + 1)])


class Quadrature:
    """Gauss-Legendre in z times uniform longitude; exact up to degree `band`."""

    def __init__(self, band):
        nz = band // 2 + 1
        nphi = band + 1
        z, wz = np.polynomial.legendre.leggauss(nz)
        phi = TWO_PI * np.arange(nphi) / nphi
        r = np.sqrt(1.0 - z * z)
        self.nodes = np.column_stack([
            np.outer(r, np.cos(phi)).ravel(),
            np.outer(r, np.sin(phi)).ravel(),
            np.repeat(z, nphi),
        ])
        self.weights = np.repeat(wz, nphi) * (TWO_PI / nphi)

    def integrate(self, values):
        return float(self.weights @ values)


def l2_norm_sq(coeffs):
    """Integral of f^2 over the round sphere, by reference quadrature."""
    q = Quadrature(2 * degree_of(coeffs) + 2)
    return q.integrate(evaluate(coeffs, q.nodes) ** 2)


def _tangent_pair(p):
    """Orthonormal tangent vectors at each unit point of (n, 3)."""
    seed = np.zeros_like(p)
    seed[np.arange(p.shape[0]), np.argmin(np.abs(p), axis=1)] = 1.0
    e1 = np.cross(p, seed)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return e1, np.cross(p, e1)


def dense_max_abs(coeffs, band=96, keep=8, min_step=1e-10):
    """max |f| over the sphere: a dense node scan, then a local zoom search.

    The `keep` best nodes are refined together, each on a 3x3 stencil in its
    own tangent chart whose step halves whenever the centre is the best
    point, until every step is below `min_step` radians.
    """
    q = Quadrature(band)
    vals = np.abs(evaluate(coeffs, q.nodes))
    top = np.argsort(-vals)[:keep]
    x = q.nodes[top]
    fx = vals[top]
    step = np.full(top.size, math.pi / band)
    offsets = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], dtype=float)
    while np.any(step >= min_step):
        e1, e2 = _tangent_pair(x)
        trial = x[:, None] + step[:, None, None] * (
            offsets[None, :, :1] * e1[:, None] + offsets[None, :, 1:] * e2[:, None]
        )
        trial /= np.linalg.norm(trial, axis=2, keepdims=True)
        tv = np.abs(evaluate(coeffs, trial)).reshape(top.size, -1)
        j = np.argmax(tv, axis=1)
        best = tv[np.arange(top.size), j]
        up = best > fx
        x = np.where(up[:, None], trial[np.arange(top.size), j], x)
        fx = np.where(up, best, fx)
        step = np.where(up, step, 0.5 * step)
    return float(max(vals.max(), fx.max()))


def great_circle_points(u, m):
    """m uniform points of the great circle with unit axis u."""
    u = np.asarray(u, dtype=float)
    e1, e2 = _tangent_pair(u[None])
    ang = TWO_PI * np.arange(m) / m
    return np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2


def funk(coeffs, u):
    """Funk transform of f at axis u, from the spectral eigenvalues."""
    return float(evaluate(funk_coeffs(coeffs), np.asarray(u, dtype=float)[None])[0])


def factor(coeffs, t, points):
    """Length factor w = 1 + t*f of the variation (1 + t*f)^2 g0."""
    return 1.0 + t * evaluate(coeffs, points)


def _arcs(p, q):
    return np.arctan2(np.linalg.norm(np.cross(p, q), axis=-1), np.sum(p * q, axis=-1))


def _mid(p, q):
    s = p + q
    return s / np.linalg.norm(s, axis=-1, keepdims=True)


def polygon_length(coeffs, t, vertices):
    """Midpoint-rule length of a closed polygon: sum w(edge midpoint) * arc."""
    v = np.asarray(vertices, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    return float(np.sum(factor(coeffs, t, _mid(v, nxt)) * _arcs(v, nxt)))


def first_variation(coeffs, t, vertices, h=1e-6):
    """Largest derivative of the polygon length along the curve normal.

    Each vertex is moved by +-h along the normal of the curve (the tangent
    of the sphere orthogonal to the chord from its predecessor to its
    successor) and the two edges touching it are re-measured (central
    differences).  This is the discrete geodesic curvature condition: a
    discrete closed geodesic reads close to 0.  Motion along the curve only
    re-spaces the vertices and is not measured.
    """
    v = np.asarray(vertices, dtype=float)
    prev = np.roll(v, 1, axis=0)
    nxt = np.roll(v, -1, axis=0)
    normal = np.cross(v, nxt - prev)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)

    def local(x):
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        return (factor(coeffs, t, _mid(prev, x)) * _arcs(prev, x)
                + factor(coeffs, t, _mid(x, nxt)) * _arcs(x, nxt))

    return float(np.max(np.abs(local(v + h * normal) - local(v - h * normal)) / (2.0 * h)))
