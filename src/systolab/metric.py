"""Conformal metrics on the 2-sphere and their basic geometric quantities.

A metric here has the form g = (1 + lam*t) * (1 + t*f)^2 * g0 with g0 the
round metric and f a mean-zero band-limited function: the pointwise length
factor is w = sqrt(1 + lam*t) * (1 + t*f).  Setting lam = 0 gives the plain
conformal variation; lam equal to the mean of an arbitrary direction gives
the normalized variation that separates scaling from shape.

Curves are closed polygons on the sphere; lengths use the second-order
midpoint rule w(midpoint) * (round arc length of the edge), and energies fix
the parameter domain to total measure 2*pi so that for constant-speed curves
E = l^2 / (4*pi), aligning the threshold 2E <= l with l <= 2*pi.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DegenerateSystole, NonAdmissibleT
from .harmonics import (
    FOUR_PI,
    _latitude_interpolant,
    build_quadrature,
    laplacian,
    mean_zero_decompose,
    normalize_points,
    sh_sum,
    sh_sum_grad,
)

#: Slack on the pi/2 consecutive-vertex separation bound (allows exact pi/2).
_EDGE_SEP_TOL = 1e-9

#: Iteration cap of _polish_extrema; each iteration is one evaluation of the
#: latitude interpolant.
POLISH_ITERATIONS = 40

#: Chart offset of the central-difference Hessian in _polish_extrema.
_HESSIAN_STEP = 1e-4

#: Chart gradient, relative to the largest |f| among the candidates, at which
#: a polished candidate stops.
_POLISH_GTOL = 1e-11

#: Longest chart step of a polish iteration, in radians.
_POLISH_STEP_MAX = 0.25

#: Floor of the Hessian eigenvalue magnitudes in _polish_extrema, relative to
#: the largest |f| among the candidates.
_POLISH_EIGEN_FLOOR = 1e-8

#: Distance under which two polished candidates count as the same point.
_POLISH_SAME_POINT = 1e-7

#: Coefficients the round metric evaluates w with: the zero direction.
_ROUND_COEFFS = np.zeros(1)
_ROUND_COEFFS.flags.writeable = False


def circle_frame(u):
    """Right-handed orthonormal tangent frame (e1, e2) at the unit vector u.

    u is one vector or an array (..., 3) of them, giving frames of the same
    shape.  Deterministic: e1 comes from projecting out the coordinate axis
    least aligned with u, and e2 = u x e1 so that traversal from e1 toward
    e2 is the screw-rule orientation around u.  The row-wise kernels below
    give exactly what np.sum, np.linalg.norm and np.cross would.
    """
    u = normalize_points(u)
    axis = np.eye(3)[np.argmin(np.abs(u), axis=-1)]
    e1 = axis - _dots(axis, u)[..., None] * u
    e1 /= _norms(e1)[..., None]
    ux, uy, uz = u[..., 0], u[..., 1], u[..., 2]
    ax, ay, az = e1[..., 0], e1[..., 1], e1[..., 2]
    e2 = np.stack([uy * az - uz * ay, uz * ax - ux * az, ux * ay - uy * ax], axis=-1)
    return e1, e2


def _polish_extrema(f, x0, signs):
    """Polish points x0 (k, 3) toward maxima (sign 1) or minima (sign -1) of f.

    One projected Newton iteration moves every candidate at once.  It
    evaluates f once, through the latitude interpolant that the call builds
    (harmonics._latitude_interpolant), on the (5k, 3) batch of the points
    and their chart offsets +-h*e1, +-h*e2: the point gives the value and
    the chart gradient, the offsets the 2x2 chart Hessian by central
    differences of the analytic gradient.  Each candidate's frame comes from
    circle_frame once, at its start, and is carried to every trial point
    (e1 projected onto the new tangent plane, e2 = u x e1).  The step is
    Newton's on that Hessian with its eigenvalues made negative (maximum) or
    positive (minimum) and floored, so it climbs or descends even where the
    Hessian is indefinite or degenerate (extrema on a ring); the symmetric
    2x2 eigenproblem is solved in closed form (_eigen_step).  Steps are
    capped; a candidate whose value got worse without its gradient
    shrinking returns to its last point with a quarter of the cap.  A
    candidate stops at a chart gradient of _POLISH_GTOL times the largest
    |f| among the candidates, or when it comes within _POLISH_SAME_POINT of
    a candidate of the same sign that is at least as good; the iterations
    are capped at POLISH_ITERATIONS.  Returns (points (k, 3), f values (k,)).

    Apart from the evaluation, an iteration is arithmetic on Python floats:
    with k <= 8 candidates, numpy's per-call overhead on arrays of a few
    rows costs more than the arithmetic does.
    """
    x = np.array(normalize_points(x0), dtype=float).reshape(-1, 3)
    e1, e2 = circle_frame(x)
    x, e1, e2 = x.tolist(), e1.tolist(), e2.tolist()
    s = np.asarray(signs, dtype=float).tolist()
    k = len(x)
    trial, te1, te2 = list(x), list(e1), list(e2)
    value, grad, step = [0.0] * k, [(0.0, 0.0)] * k, [(0.0, 0.0)] * k
    cap = [_POLISH_STEP_MAX] * k
    active = list(range(k))
    h = _HESSIAN_STEP
    r = math.sqrt(1.0 + h * h)
    evaluate = _latitude_interpolant(f.coeffs)
    for it in range(POLISH_ITERATIONS):
        if not active:
            break
        n = len(active)
        rows = [trial[i] for i in active]
        for frame, offset in ((te1, h), (te1, -h), (te2, h), (te2, -h)):
            rows += [[(p + offset * a) / r for p, a in zip(trial[i], frame[i])] for i in active]
        vals, grads = evaluate(np.array(rows))
        vals, grads = vals.tolist(), grads.tolist()
        if it == 0:
            fscale = max(abs(v) for v in vals[:n])
            floor, gtol = _POLISH_EIGEN_FLOOR * fscale, _POLISH_GTOL * fscale
        for j, i in enumerate(active):
            a1, a2 = te1[i], te2[i]
            g = (_dot3(grads[j], a1), _dot3(grads[j], a2))
            # chart gradients at +-h*e1 and +-h*e2, where the chart map's
            # derivative is the frame divided by r
            cg = [(_dot3(row, a1) / r, _dot3(row, a2) / r) for row in grads[j + n::n]]
            hxx = (cg[0][0] - cg[1][0]) / (2.0 * h)
            hyy = (cg[2][1] - cg[3][1]) / (2.0 * h)
            hxy = 0.5 * ((cg[0][1] - cg[1][1]) / (2.0 * h) + (cg[2][0] - cg[3][0]) / (2.0 * h))
            # a worse value counts only if the gradient did not shrink: near
            # the extremum f values no longer resolve a Newton step
            si, v = s[i], vals[j]
            if it and si * v < si * value[i] and math.hypot(*g) >= math.hypot(*grad[i]):
                cap[i] = 0.25 * min(cap[i], math.hypot(*step[i]))
                continue
            x[i], e1[i], e2[i], value[i], grad[i] = trial[i], a1, a2, v, g
            step[i] = _eigen_step(si * hxx, si * hxy, si * hyy, si * g[0], si * g[1], floor)
        # drop a candidate that sits on an at-least-as-good one of its sign
        active = [i for i in active if math.hypot(*grad[i]) > gtol and not any(
            s[j] == s[i] and math.dist(x[i], x[j]) < _POLISH_SAME_POINT
            and (s[i] * value[i] < s[j] * value[j]
                 or (s[i] * value[i] == s[j] * value[j] and i > j))
            for j in range(k))]
        for i in active:
            d1, d2 = step[i]
            scale = min(1.0, cap[i] / max(math.hypot(d1, d2), 1e-300))
            d1, d2 = d1 * scale, d2 * scale
            p = [c + d1 * a + d2 * b for c, a, b in zip(x[i], e1[i], e2[i])]
            norm = math.sqrt(_dot3(p, p))
            trial[i] = p = [c / norm for c in p]
            along = _dot3(e1[i], p)
            a = [c - along * u for c, u in zip(e1[i], p)]
            norm = math.sqrt(_dot3(a, a))
            te1[i] = a = [c / norm for c in a]
            te2[i] = [p[1] * a[2] - p[2] * a[1], p[2] * a[0] - p[0] * a[2],
                      p[0] * a[1] - p[1] * a[0]]
    return np.array(x), np.array(value)


def _dot3(p, q):
    """Dot product of two 3-vectors of Python floats, in _dots's order."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _eigen_step(a, b, c, g1, g2, floor):
    """sum over the eigenpairs (mu, v) of [[a, b], [b, c]] of (v . g) v / max(|mu|, floor).

    The eigenvalues are mid +- hypot((a - c)/2, b), with eigenvectors at the
    angle atan2(2b, a - c)/2 and a right angle further.
    """
    mid, rad = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    angle = 0.5 * math.atan2(2.0 * b, a - c)
    cos, sin = math.cos(angle), math.sin(angle)
    along = (cos * g1 + sin * g2) / max(abs(mid + rad), floor)
    across = (cos * g2 - sin * g1) / max(abs(mid - rad), floor)
    return cos * along - sin * across, sin * along + cos * across


def _grid_peaks(a):
    """Flat indices of the local maxima of a (rings, longitudes) product-grid array.

    A node is a peak when its value is >= that of each of its 8 neighbours:
    the two beside it on its ring (wrapping in longitude) and the three
    nearest on each adjacent ring.  A polar ring surrounds its pole, so it
    has one adjacent ring.  A node is >= its neighbours exactly when it is
    the maximum of its 3x3 block, taken as a running maximum over slices,
    first along the (wrapped) ring and then across the (padded) rings.
    """
    rings, m = a.shape
    padded = np.full((rings + 2, m + 2), -np.inf)
    padded[1:-1, 1:-1] = a
    padded[1:-1, 0], padded[1:-1, -1] = a[:, -1], a[:, 0]
    along = np.maximum(np.maximum(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
    block = np.maximum(np.maximum(along[:-2], along[1:-1]), along[2:])
    return np.flatnonzero(a >= block)


def sup_norm(f):
    """Max of |f| over the sphere: dense-grid scan plus a batched Newton polish.

    The grid is a quadrature node set several times denser than the band of
    f, evaluated by its transform.  Its local maxima of |f| (_grid_peaks)
    are kept one per distinct value, since a zonal ring ties bit for bit,
    and the eight largest are polished together by _polish_extrema, each
    toward the extremum of the sign its grid value has.  A polish iteration
    evaluates f and its gradient once, through the latitude interpolant, at
    the candidates and their four chart offsets; the rest of it is Python
    float arithmetic on at most eight candidates, which costs less than
    numpy calls on arrays that small.  A degree-8 call takes about five
    iterations.
    """
    if not np.any(f.coeffs):
        return 0.0
    band = max(6 * f.degree, 48)
    q = build_quadrature(band)
    vals = q.synthesize(f.coeffs)
    a = np.abs(vals)
    peaks = _grid_peaks(a.reshape(-1, q.band + 1))
    _, first = np.unique(a[peaks], return_index=True)
    top = peaks[first[::-1][:8]]
    _, values = _polish_extrema(f, q.nodes[top], np.where(vals[top] >= 0.0, 1.0, -1.0))
    return max(float(a[top[0]]), float(np.max(np.abs(values))))


def max_admissible_t(f):
    """Symmetric admissible bound a = 1 / sup|f| (infinite for f = 0).

    The variation (1 + t*f)^2 * g0 is a genuine metric for every |t| < a;
    sign-asymmetric f admits a larger one-sided range, which we deliberately
    do not chase: the bound is used two-sidedly.  The sup norm is computed
    on the first call for f and kept on f (whose coefficients are read-only),
    so every later bound of the same object is free.
    """
    s = f._sup_norm
    if s is None:
        s = f._sup_norm = sup_norm(f)
    return math.inf if s == 0.0 else 1.0 / s


class ConformalMetric:
    """Immutable conformal metric (1 + lam*t) * (1 + t*f)^2 * g0.

    Parameters
    ----------
    f : SphericalFunction
        Mean-zero variation direction.
    t : float
        Variation parameter; |t| must stay below the admissible bound of f.
    lam : float
        Scale-direction coefficient (the mean of the original direction when
        the metric comes from the normalized variation).

    Area integrals use quadrature = build_quadrature(2 deg f + 2), whose band
    covers w^2 exactly.

    The round metric (t = 0) evaluates w through the zero direction, so its
    w = sqrt(1 + lam*t) and grad w = 0 come from the same formulas as every
    other metric's, without evaluating f.
    """

    def __init__(self, f, t, lam):
        self.f = f
        self.t = float(t)
        self.lam = float(lam)
        self.quadrature = build_quadrature(2 * f.degree + 2)
        self.scale = 1.0 + self.lam * self.t
        self._sqrt_scale = math.sqrt(self.scale)
        self._coeffs = f.coeffs if self.t != 0.0 else _ROUND_COEFFS

    @property
    def is_round(self):
        return self.t == 0.0

    def w(self, points):
        """Pointwise length factor w = sqrt(1 + lam*t) * (1 + t*f).

        points are validated and renormalized onto the sphere; a single
        point gives a float, an array (..., 3) gives an array (...).
        """
        p = normalize_points(points)
        vals = self.w_flat(p.reshape(-1, 3))
        return float(vals[0]) if p.ndim == 1 else vals.reshape(p.shape[:-1])

    def w_flat(self, pts):
        """w at a flat (k, 3) array of unit points, taken as they are."""
        return self._sqrt_scale * (1.0 + self.t * sh_sum(self._coeffs, pts))

    def w_and_grad(self, pts):
        """(w, tangential grad w) at a flat (k, 3) array of unit points.

        grad w = sqrt(1 + lam*t) * t * grad f; the round metric has w = 1
        and grad w = 0.
        """
        vals, grads = sh_sum_grad(self._coeffs, pts)
        return self._sqrt_scale * (1.0 + self.t * vals), (self._sqrt_scale * self.t) * grads

    def w_nodes(self, q):
        """w at the nodes of the quadrature q, by its transform."""
        return self._sqrt_scale * (1.0 + self.t * q.synthesize(self._coeffs))

    @cached_property
    def _node_w(self):
        return self.w_nodes(self.quadrature)

    @cached_property
    def _lap_w_coeffs(self):
        """Coefficients of lap0 w = sqrt(1 + lam*t) * t * lap0 f."""
        return (self._sqrt_scale * self.t) * laplacian(self.f).coeffs

    def _curvature(self, pts, lap_w):
        """K at a flat (k, 3) array of unit points, given lap0 w there.

        K = (1 - lap0 log w) / w^2 with lap0 log w = lap0 w / w - |grad w|^2 / w^2:
        exact, since lap0 w and grad w are those of the band-limited f.
        """
        w, grad = self.w_and_grad(pts)
        return (1.0 - lap_w / w + _dots(grad, grad) / w**2) / w**2

    def _check_curvature(self):
        """(check quadrature, K at its nodes).

        The band, 3 max(16, 4 deg f) + 8, depends on deg f only: 56 up to
        degree 4, 104 at degree 8.
        """
        q = build_quadrature(3 * max(16, 4 * self.f.degree) + 8)
        return q, self._curvature(q.nodes, q.synthesize(self._lap_w_coeffs))

    @cached_property
    def _min_curvature(self):
        return float(np.min(self._check_curvature()[1]))

    def __repr__(self):
        return (f"ConformalMetric(degree={self.f.degree}, t={self.t}, "
                f"lam={self.lam})")


def make_variation(f, t, lam=0.0):
    """Build the conformal metric (1 + lam*t) * (1 + t*f)^2 * g0.

    f must be mean-zero (split any constant part into lam beforehand, e.g.
    with mean_zero_decompose).  Raises NonAdmissibleT when t or lam is not
    finite, when |t| reaches the symmetric admissible bound of f or when
    1 + lam*t <= 0.
    """
    if not (math.isfinite(t) and math.isfinite(lam)):
        raise NonAdmissibleT(f"t and lam must be finite, got t = {t!r}, lam = {lam!r}")
    mean = float(f.coeffs[0]) / math.sqrt(FOUR_PI)
    if abs(mean) > 1e-12 * (1.0 + float(np.max(np.abs(f.coeffs)))):
        raise ValueError(
            f"direction has mean {mean:.3e}; pass its mean-zero part and put "
            "the constant component into lam"
        )
    if 1.0 + lam * t <= 0.0:
        raise NonAdmissibleT(f"scale factor 1 + lam*t = {1.0 + lam * t:.6g} <= 0")
    if t != 0.0:
        bound = max_admissible_t(f)
        if abs(t) >= bound:
            raise NonAdmissibleT(
                f"|t| = {abs(t):.6g} outside the admissible range "
                f"]-{bound:.6g}, {bound:.6g}[ for this direction"
            )
    g = ConformalMetric(f, t, lam)
    # Belt and braces: the bound above already implies positivity, but the
    # sup-norm is itself numerical, so confirm on a much denser grid.
    if t != 0.0:
        check = build_quadrature(3 * g.quadrature.band + 16)
        if np.min(g.w_nodes(check)) <= 0.0:
            raise NonAdmissibleT("length factor not positive on the check grid")
    return g


def normalized_variation(f, t):
    """Normalized variation of an arbitrary direction f.

    Splits f = lam + f0 with f0 mean-zero and builds
    (1 + lam*t) * (1 + t*f0)^2 * g0, the form that isolates scaling.
    """
    lam, f0 = mean_zero_decompose(f)
    return make_variation(f0, t, lam)


def area(g):
    """Total area of (S^2, g) by quadrature of w^2 dv0.

    For lam = 0 this equals 4*pi + t^2 * integral(f^2) exactly (the
    quadrature band covers degree 2L), which is the variation's area law.
    """
    return float(g.quadrature.weights @ g._node_w**2)


class DiscreteClosedCurve:
    """Closed polygon on S^2: vertex i joins vertex i+1 (mod n).

    A point curve (all vertices equal) is explicitly allowed — a family that
    sweeps out the sphere needs it.  Otherwise n >= 3 and consecutive
    vertices must stay within round distance pi/2 so the connecting arcs
    are unambiguous.
    """

    __slots__ = ("vertices", "is_point")

    def __init__(self, vertices):
        v = normalize_points(np.atleast_2d(np.asarray(vertices, dtype=float)))
        spread = float(np.max(np.abs(v - v[0]))) if v.shape[0] > 1 else 0.0
        self.is_point = spread < 1e-12
        if not self.is_point:
            if v.shape[0] < 3:
                raise ValueError("closed curve needs at least 3 vertices")
            arcs = _arc_lengths(v, np.roll(v, -1, axis=0))
            worst = float(np.max(arcs))
            if worst > math.pi / 2.0 + _EDGE_SEP_TOL:
                raise ValueError(
                    f"consecutive vertices {worst:.4f} apart exceed pi/2"
                )
        self.vertices = v

    @property
    def n(self):
        return self.vertices.shape[0]

    @classmethod
    def point(cls, p, n=1):
        """Degenerate point curve at p with n identical vertices."""
        return cls(np.tile(np.asarray(p, dtype=float), (n, 1)))

    def __repr__(self):
        kind = "point" if self.is_point else "closed"
        return f"DiscreteClosedCurve(n={self.n}, {kind})"


# Row-wise vector kernels on (..., 3) arrays.  They spell out the x/y/z
# arithmetic in numpy's own order (cross components a1*b2 - a2*b1, sums
# (x^2 + y^2) + z^2), so they return exactly what np.cross, np.linalg.norm and
# np.sum(p*q, axis=-1) return, without those functions' per-call overhead on
# the small batches of the shortening loop.


def _norms(v):
    """Euclidean norms along the last axis."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def _dots(p, q):
    """Dot products of paired vectors along the last axis."""
    return p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] + p[..., 2] * q[..., 2]


def _sin_cos(p, q):
    """(|p x q|, p . q) for paired vectors: the two legs of their angle."""
    px, py, pz = p[..., 0], p[..., 1], p[..., 2]
    qx, qy, qz = q[..., 0], q[..., 1], q[..., 2]
    cx = py * qz - pz * qy
    cy = pz * qx - px * qz
    cz = px * qy - py * qx
    return np.sqrt(cx * cx + cy * cy + cz * cz), px * qx + py * qy + pz * qz


def _arc_lengths(p, q):
    """Round distances between paired unit points (robust at small angles)."""
    return np.arctan2(*_sin_cos(p, q))


def _shifted(X, k):
    """X (..., n, 3) with vertex i + k (mod n) in place i.

    The same array as np.roll(X, -k, axis=-2), built from two slices at a
    third of np.roll's cost on the small arrays of the shortening loop.
    """
    k %= X.shape[-2]
    return np.concatenate([X[..., k:, :], X[..., :k, :]], axis=-2)


def _polygon_edges(X):
    """(unit edge midpoints, round arc lengths) of closed polygons (..., n, 3)."""
    nxt = _shifted(X, 1)
    mids = X + nxt
    mids /= np.maximum(_norms(mids), 1e-30)[..., None]
    return mids, _arc_lengths(X, nxt)


def _segments(g, X):
    """(metric lengths w(mid) d, round arcs d) of the edges of closed polygons (..., n, 3).

    One harmonic call; each polygon's segments are the ones it gets alone.
    """
    mids, arcs = _polygon_edges(X)
    return g.w_flat(mids.reshape(-1, 3)).reshape(arcs.shape) * arcs, arcs


def _batch_metric_lengths(g, X):
    """Metric lengths (midpoint rule) of closed polygons (..., n, 3)."""
    return np.sum(_segments(g, X)[0], axis=-1)


def _polygon_energy(g, V):
    """Discrete energy of each closed polygon of a stack (..., n, 3).

    One harmonic call; each polygon's energy is the one it gets alone.
    """
    seg = _segments(g, V)[0]
    dtau = 2.0 * math.pi / V.shape[-2]
    return np.sum(seg * seg, axis=-1) / (2.0 * dtau)


def curve_length(g, c):
    """Length of c under g: sum of w(edge midpoint) * round edge length.

    A point curve has zero-length edges, so its length is exactly 0.0.
    """
    return float(_batch_metric_lengths(g, c.vertices))


def curve_energy(g, c):
    """Energy of c with the parameter domain fixed to total measure 2*pi.

    E = 1/2 * sum (w(mid) * edge_len)^2 / dtau, dtau = 2*pi/n.  Discrete
    Cauchy-Schwarz gives E >= l^2/(4*pi), with equality exactly for
    constant-speed curves, so 2E <= l if and only if l <= 2*pi there.  A
    point curve has energy exactly 0.0.
    """
    return float(_polygon_energy(g, c.vertices))


def gauss_curvature(g, p):
    """Gauss curvature at p (or an array of points), from its exact conformal formula.

    K = (1 - lap0 w / w + |grad w|^2 / w^2) / w^2, with lap0 w and grad w
    those of the band-limited f scaled by sqrt(1 + lam*t) * t.
    """
    pts = normalize_points(p)
    flat = pts.reshape(-1, 3)
    k = g._curvature(flat, sh_sum(g._lap_w_coeffs, flat))
    return float(k[0]) if pts.ndim == 1 else k.reshape(pts.shape[:-1])


def min_curvature(g):
    """Minimum of the Gauss curvature over the nodes of the check grid, found once per metric."""
    return g._min_curvature


def gauss_bonnet_integral(g):
    """Integral of K over (S^2, g) on the check grid; equals 4*pi up to its quadrature error.

    The integrand K w^2 = 1 - lap0 log w is not band-limited, so the
    difference from 4*pi is a real check of K and of the grid.
    """
    q_check, k = g._check_curvature()
    # np.sum, not a BLAS dot: above about 1e4 nodes OpenBLAS splits a dot
    # product between its threads, and the last bits follow the thread count
    return float(np.sum(q_check.weights * k * g.w_nodes(q_check) ** 2))


def systolic_ratio(area_value, systole):
    """Scale-invariant ratio area / systole^2."""
    if systole <= 0.0:
        raise DegenerateSystole(f"systole must be positive, got {systole}")
    if area_value <= 0.0:
        raise ValueError(f"area must be positive, got {area_value}")
    return area_value / systole**2
