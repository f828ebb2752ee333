"""Band-limited real functions on the unit 2-sphere.

The basis is the real spherical harmonics Y_lm, orthonormal with respect to
the surface measure dv of the round sphere (integral of Y_lm^2 over S^2 = 1,
so Y_00 = 1/sqrt(4*pi)).  Functions are stored as flat coefficient vectors of
length (L+1)^2 with index l*l + l + m.

Evaluation uses the sectoral-scaled associated Legendre functions
Q_lm(z) = Nbar_lm * P_lm(z) / (1-z^2)^(m/2), which are polynomials in z, and
the Cartesian azimuth polynomials C_m + i*S_m = (x + i*y)^m.  On the sphere
Y_lm = sqrt(2) * Q_lm(z) * C_m(x, y) (cosine branch, m > 0), so the whole
basis extends to polynomials in (x, y, z); differentiating that extension and
projecting out the radial component yields the exact tangential gradient
without pole special cases.

One recurrence produces every Q_lm and dQ_lm/dz: the generator
_scaled_legendre steps it upward in l, order by order, with the coefficients
cached by _recurrence_tables, and stops each order at a caller-given top
degree.  Four consumers run it, and each point set has one evaluator:

- sh_sum and sh_sum_grad share one accumulation loop that stops each order
  at its highest non-zero coefficient and skips empty orders; they serve
  every evaluation on curves and circles (the Birkhoff passes, the Newton
  polish of curves, the circle sums).  Their cost is about 30 numpy calls
  per (l, m) pair in use, whatever the point count.  On the sparse
  directions and 1,300-2,800-point batches of those paths they are several
  times faster than the interpolant below (about 7 times for Y20 at 2,816
  points); only dense directions would favour the interpolant there.
- _latitude_interpolant runs it once per degree at L + 1 Gauss-Legendre
  latitudes into a cached table, and contracts the coefficients with it
  into per-order polynomials in z; an evaluation is then a fixed number of
  array operations.  It serves the extremum polish (metric._polish_extrema,
  behind sup_norm and the signed Funk axes), whose batches are a few dozen
  points of a dense direction: a degree-8 iteration of 40 points takes a
  twelfth of the time of sh_sum_grad.  Its one call per iteration is all
  the array work the polish does; the polish keeps its (at most eight)
  candidates' frames, Hessians and steps in Python floats, since numpy
  calls on arrays of a few rows cost more than the arithmetic.  Its
  accuracy falls with the degree: each order's node values of
  sum_l c_lm * Q_lm grow near the poles (to about 1,300 at degree 16 on a
  standard-normal draw), and their rounding reaches every latitude, so its
  relative error is below 1e-13 up to degree 16 and 1e-11 at 32.
- SphereQuadrature runs it once at its Gauss-Legendre latitudes into a
  latitude table; its synthesize is the product-grid transform behind every
  evaluation on a quadrature grid (areas, the positivity check, sup_norm's
  grid scan, the Funk scan and lap0 w on the curvature check grid), and
  project is its adjoint.  No library path synthesizes coefficients above
  the degree of its direction.
- sh_basis fills the dense (points x harmonics) basis matrix.  No library
  path uses it; it is the reference the tests hold the other three to.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BandTooLow

FOUR_PI = 4.0 * math.pi

#: Default band limit used across the lab.
DEFAULT_DEGREE = 8

#: Tolerated drift of an input point off the unit sphere before it is rejected.
UNIT_NORM_TOL = 1e-9


def sh_size(degree_max):
    """Number of real harmonics of degree <= degree_max."""
    return (degree_max + 1) ** 2


def sh_index(l, m):
    """Flat index of the (l, m) harmonic, -l <= m <= l."""
    if not 0 <= l:
        raise ValueError(f"degree l must be >= 0, got {l}")
    if not -l <= m <= l:
        raise ValueError(f"order m={m} outside [-{l}, {l}]")
    return l * l + l + m


def sh_degrees(degree_max):
    """Array mapping each flat index to its degree l."""
    ls = np.empty(sh_size(degree_max), dtype=int)
    for l in range(degree_max + 1):
        ls[l * l : (l + 1) ** 2] = l
    return ls


def normalize_points(points):
    """Return points renormalized onto S^2.

    Points that are not finite, or whose norm drifted from 1 by more than
    UNIT_NORM_TOL, are rejected: such inputs signal a bug upstream rather
    than accumulated rounding.
    """
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError(f"points must have trailing dimension 3, got shape {p.shape}")
    r = np.sqrt(np.sum(p * p, axis=-1))
    # written so that a NaN norm fails the test too
    if not np.all(np.abs(r - 1.0) <= UNIT_NORM_TOL):
        if not np.all(np.isfinite(p)):
            raise ValueError("points must be finite")
        worst = float(np.max(np.abs(r - 1.0)))
        raise ValueError(f"point drifted {worst:.3e} off the unit sphere (tol {UNIT_NORM_TOL:.0e})")
    return p / r[..., np.newaxis]


@cache
def _recurrence_tables(degree_max):
    """Cached tables (qmm, a, b, degrees, orders) of the Legendre recurrence.

    qmm[m] is the constant sectoral value Q_mm; for l > m the recurrence is
    Q_lm = a[l][m] * z * Q_(l-1)m - b[l][m] * Q_(l-2)m, whose first step
    (l = m + 1, a = sqrt(2m + 3)) has no Q_(l-2)m term.  degrees[k] and
    orders[k] are the l and |m| of flat index k.
    """
    L = degree_max
    qmm = [1.0 / math.sqrt(FOUR_PI)]
    for m in range(1, L + 1):
        qmm.append(math.sqrt((2 * m + 1) / (2.0 * m)) * qmm[m - 1])
    a = [[0.0] * (L + 1) for _ in range(L + 1)]
    b = [[0.0] * (L + 1) for _ in range(L + 1)]
    for m in range(L):
        a[m + 1][m] = math.sqrt(2 * m + 3)
    for m in range(L + 1):
        for l in range(m + 2, L + 1):
            a[l][m] = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b[l][m] = math.sqrt(
                (2.0 * l + 1.0)
                * ((l - 1.0) ** 2 - m * m)
                / ((2.0 * l - 3.0) * (l * l - m * m))
            )
    degrees = [l for l in range(L + 1) for _ in range(2 * l + 1)]
    orders = [abs(m) for l in range(L + 1) for m in range(-l, l + 1)]
    return qmm, a, b, degrees, orders


def _scaled_legendre(z, degree_max, tops, derivative):
    """Yield (l, m, Q_lm, dQ_lm/dz) order by order, l ascending within each order.

    Order m runs from l = m up to tops[m] and is skipped when tops[m] < 0.
    The sectoral value Q_mm and its zero derivative are scalars, which
    numpy broadcasts.  Without derivative, dQ is None from l = m + 2 on.
    """
    qmm, ta, tb, _, _ = _recurrence_tables(degree_max)
    for m, top in enumerate(tops):
        if top < 0:
            continue
        q1, dq1 = qmm[m], 0.0
        yield m, m, q1, dq1
        q2 = dq2 = None
        for l in range(m + 1, top + 1):
            a = ta[l][m]
            if l == m + 1:
                q, dq = a * z * q1, a * q1
            else:
                q = a * z * q1 - tb[l][m] * q2
                dq = a * (z * dq1 + q1) - tb[l][m] * dq2 if derivative else None
            q2, q1 = q1, q
            dq2, dq1 = dq1, dq
            yield l, m, q, dq


def sh_basis(points, degree_max, grad=False):
    """Evaluate the real orthonormal basis at unit points.

    Parameters
    ----------
    points : array (..., 3), assumed on S^2 (no renormalization here).
    degree_max : highest degree L.
    grad : if True, also return the tangential gradients.

    Returns
    -------
    Y : array (n, (L+1)^2)
    dY : array (n, 3, (L+1)^2), only when grad=True; rows are tangential
         (orthogonal to the evaluation point).
    """
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    L = degree_max
    n = p.shape[0]
    nb = sh_size(L)

    # Azimuth polynomials (x + i y)^m.
    C = np.empty((L + 1, n))
    S = np.empty((L + 1, n))
    C[0] = 1.0
    S[0] = 0.0
    for m in range(1, L + 1):
        C[m] = x * C[m - 1] - y * S[m - 1]
        S[m] = x * S[m - 1] + y * C[m - 1]

    sqrt2 = math.sqrt(2.0)
    Y = np.empty((n, nb))
    dY = np.zeros((n, 3, nb)) if grad else None
    for l, m, q, dq in _scaled_legendre(z, L, [L] * (L + 1), grad):
        kc = l * l + l + m
        if m == 0:
            Y[:, kc] = q
            if grad:
                dY[:, 2, kc] = dq
            continue
        ks = l * l + l - m
        Y[:, kc] = sqrt2 * q * C[m]
        Y[:, ks] = sqrt2 * q * S[m]
        if grad:
            # d/dx (x+iy)^m = m (x+iy)^(m-1), d/dy = i m (x+iy)^(m-1)
            dY[:, 0, kc] = sqrt2 * q * m * C[m - 1]
            dY[:, 1, kc] = -sqrt2 * q * m * S[m - 1]
            dY[:, 2, kc] = sqrt2 * dq * C[m]
            dY[:, 0, ks] = sqrt2 * q * m * S[m - 1]
            dY[:, 1, ks] = sqrt2 * q * m * C[m - 1]
            dY[:, 2, ks] = sqrt2 * dq * S[m]
    if not grad:
        return Y
    # Remove the radial component: gradients of any smooth extension agree
    # tangentially, so the polynomial extension above is as good as any.
    radial = np.einsum("nik,ni->nk", dY, p)
    dY -= radial[:, np.newaxis, :] * p[:, :, np.newaxis]
    return Y, dY


def _order_tops(c, degrees, orders):
    """Highest degree with a non-zero (l, +-m) coefficient for each order m.

    -1 marks an order whose coefficients all vanish; the list ends at the
    highest order in use.  The recurrence of order m never needs to run past
    its top degree.
    """
    tops = [-1] * (degrees[-1] + 1)
    for k in np.flatnonzero(c).tolist():  # ascending k, so ascending degree
        tops[orders[k]] = degrees[k]
    while tops and tops[-1] < 0:
        tops.pop()
    return tops


def _sh_accumulate(coeffs, points, grad):
    """Values of a coefficient sum at unit points, and with grad its gradients.

    Column-by-column accumulation in O(n) memory.  Harmonics whose
    coefficients vanish are skipped, and the recurrence of each order stops
    at its highest non-zero degree, so sparse directions evaluate in a
    handful of vector operations.  The gradient carries d/dz of the scaled
    Legendre values and the azimuth-derivative identities; its radial
    component is projected out at the end.
    """
    c = np.asarray(coeffs, dtype=float)
    L = math.isqrt(c.size) - 1
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    n = p.shape[0]
    _, _, _, degrees, orders = _recurrence_tables(L)
    cl = c.tolist()
    sqrt2 = math.sqrt(2.0)
    val = np.zeros(n)
    if grad:
        gx, gy, gz = np.zeros(n), np.zeros(n), np.zeros(n)
    cm = np.ones(n)
    sm = np.zeros(n)
    am = 0  # order of the azimuth polynomials cm + i*sm; m > am steps them
    for l, m, q, dq in _scaled_legendre(z, L, _order_tops(c, degrees, orders), grad):
        while am < m:
            cm_prev, sm_prev = cm, sm
            cm, sm = x * cm - y * sm, x * sm + y * cm
            am += 1
        if m == 0:
            cc = cl[l * l + l]
            if cc != 0.0:
                val += cc * q
                if grad:
                    gz += cc * dq
            continue
        cp = cl[l * l + l + m]
        cn = cl[l * l + l - m]
        if cp != 0.0 or cn != 0.0:
            azim = cp * cm + cn * sm
            val += sqrt2 * azim * q
            if grad:
                gz += sqrt2 * azim * dq
                mq = m * sqrt2 * q
                gx += mq * (cp * cm_prev + cn * sm_prev)
                gy += mq * (cn * cm_prev - cp * sm_prev)
    if not grad:
        return val
    radial = gx * x + gy * y + gz * z
    grads = np.column_stack([gx - radial * x, gy - radial * y, gz - radial * z])
    return val, grads


def sh_sum(coeffs, points):
    """Sum of coeffs[k] * Y_k at unit points, without the basis matrix."""
    return _sh_accumulate(coeffs, points, False)


def sh_sum_grad(coeffs, points):
    """(values, tangential gradients) of a coefficient sum at unit points.

    The values are bit-for-bit those of sh_sum.
    """
    return _sh_accumulate(coeffs, points, True)


class SphericalFunction:
    """Real band-limited function on S^2 as a flat coefficient vector.

    Immutable: the constructor copies its input, refuses non-finite
    coefficients and marks coeffs read-only, so a value derived from the
    coefficients stays valid for the object's life.  The one such value is
    the sup norm, which metric.max_admissible_t computes on its first call
    and keeps in the _sup_norm slot.
    """

    __slots__ = ("coeffs", "_sup_norm")

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError("coeffs must be one-dimensional")
        L = math.isqrt(c.size) - 1
        if sh_size(L) != c.size:
            raise ValueError(f"coefficient length {c.size} is not a perfect square")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        self.coeffs = c
        self._sup_norm = None

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor: numpy
        # does not carry the read-only flag over, and a writable copy must
        # not inherit a kept sup norm
        return SphericalFunction, (self.coeffs,)

    @property
    def degree(self):
        return math.isqrt(self.coeffs.size) - 1

    @classmethod
    def zeros(cls, degree_max=DEFAULT_DEGREE):
        return cls(np.zeros(sh_size(degree_max)))

    @classmethod
    def constant(cls, value, degree_max=0):
        c = np.zeros(sh_size(degree_max))
        c[0] = value * math.sqrt(FOUR_PI)
        return cls(c)

    @classmethod
    def harmonic(cls, l, m, coeff=1.0, degree_max=None):
        return cls.from_pairs([(l, m, coeff)], degree_max)

    @classmethod
    def from_pairs(cls, pairs, degree_max=None):
        """Build from [(l, m, value), ...]; omitted entries are zero."""
        pairs = list(pairs)
        L = max((l for l, _, _ in pairs), default=0)
        if degree_max is not None:
            if degree_max < L:
                raise ValueError(f"degree_max={degree_max} below largest pair degree {L}")
            L = degree_max
        c = np.zeros(sh_size(L))
        for l, m, v in pairs:
            c[sh_index(l, m)] += v
        return cls(c)

    def coefficient(self, l, m):
        k = sh_index(l, m)
        return float(self.coeffs[k]) if k < self.coeffs.size else 0.0

    def padded(self, degree_max):
        """Same function re-indexed with band limit >= current degree."""
        if degree_max < self.degree:
            raise ValueError("cannot shrink the band limit")
        c = np.zeros(sh_size(degree_max))
        c[: self.coeffs.size] = self.coeffs
        return SphericalFunction(c)

    def __call__(self, points):
        p = normalize_points(points)
        vals = sh_sum(self.coeffs, p)
        return float(vals[0]) if p.ndim == 1 else vals.reshape(p.shape[:-1])

    def gradient(self, points):
        """Tangential (sphere) gradient at unit points, shape (..., 3)."""
        p = normalize_points(points)
        _, g = sh_sum_grad(self.coeffs, p)
        return g[0] if p.ndim == 1 else g.reshape(p.shape)

    def l2_norm(self):
        """L^2 norm under dv (Parseval: sqrt of sum of squared coefficients)."""
        return float(np.sqrt(np.sum(self.coeffs**2)))

    def __add__(self, other):
        L = max(self.degree, other.degree)
        return SphericalFunction(self.padded(L).coeffs + other.padded(L).coeffs)

    def __sub__(self, other):
        L = max(self.degree, other.degree)
        return SphericalFunction(self.padded(L).coeffs - other.padded(L).coeffs)

    def __mul__(self, scalar):
        return SphericalFunction(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SphericalFunction(-self.coeffs)

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs))
        return f"SphericalFunction(degree={self.degree}, nonzero={nz})"

    def to_json(self):
        """JSON form {"L": int, "coeffs": [[l, m, value], ...]}, zeros omitted."""
        entries = []
        for l in range(self.degree + 1):
            for m in range(-l, l + 1):
                v = self.coeffs[sh_index(l, m)]
                if v != 0.0:
                    entries.append([l, m, float(v)])
        return {"L": self.degree, "coeffs": entries}

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; without "L" the band limit is the largest l given.

        Any key other than "L" and "coeffs" raises ValueError, so a
        misspelled key cannot silently drop the coefficients.
        """
        unknown = sorted(set(obj) - {"L", "coeffs"})
        if unknown:
            raise ValueError(f"unknown direction keys {unknown}; expected ['L', 'coeffs']")
        L = obj.get("L")
        return cls.from_pairs(
            [(int(l), int(m), float(v)) for l, m, v in obj.get("coeffs", [])],
            degree_max=None if L is None else int(L),
        )


@cache
def _gauss_legendre(count):
    """Cached read-only Gauss-Legendre (nodes, weights) of count points on [-1, 1].

    The rule is a constant of count, so every quadrature of a band shares
    one pair; the arrays are read-only so no caller can alter the others'.
    """
    return tuple(_read_only(arr) for arr in leggauss(count))


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@cache
def _order_slots(degree_max):
    """Position of each flat index k in an (m, l, branch) array, cached per degree.

    The array has shape (L+1, L+1, 2): branch 0 holds the coefficient of the
    cosine harmonic (l, m), branch 1 that of the sine harmonic (l, -m), and
    the entries with m > l or (m = 0, branch 1) stay zero.
    """
    L = degree_max
    return _read_only(np.array([(abs(m) * (L + 1) + l) * 2 + (m < 0)
                                for l in range(L + 1) for m in range(-l, l + 1)]))


@cache
def _latitude_tables(degree_max):
    """Cached read-only (nodes, barycentric weights, table) at L + 1 Gauss-Legendre latitudes.

    table[0, m, j, l] is sqrt(2) * Q_lm(z_j) (Q_l0 itself for m = 0) and
    table[1] its d/dz, zero for l < m.  The weights are those of the
    barycentric formula on the Legendre points, (-1)^j * sqrt((1 - z_j^2) *
    w_j) with w_j the quadrature weights, up to a common factor.
    """
    L = degree_max
    z, wz = _gauss_legendre(L + 1)
    table = np.zeros((2, L + 1, L + 1, L + 1))
    for l, m, q, dq in _scaled_legendre(z, L, [L] * (L + 1), True):
        table[0, m, :, l] = q
        table[1, m, :, l] = dq
    table[:, 1:] *= math.sqrt(2.0)
    weights = (-1.0) ** np.arange(L + 1) * np.sqrt((1.0 - z * z) * wz)
    return z, _read_only(weights), _read_only(table)


def _latitude_interpolant(coeffs):
    """Evaluator of a coefficient sum through per-order latitude polynomials.

    Returns evaluate(points (k, 3)) -> (values (k,), tangential gradients
    (k, 3)).  Per order m the sum is Re(G_m(z) * (x + i*y)^m), where
    G_m = A_m - i*B_m gathers the cosine (A_m) and sine (B_m) branches' sums
    of sqrt(2) * c_lm * Q_lm(z): a polynomial of degree <= L - m, fixed by
    its values at the L + 1 Gauss-Legendre latitudes.  The coefficients are
    contracted once with the cached latitude table into the node values of
    G_m, of dG_m/dz and of m * G_m (the factor of the x and y derivatives).
    dG_m/dz comes from the recurrence's own derivative: a differentiation
    matrix on the nodes gave 3-15 times larger gradient errors at degrees
    16-32.  Each evaluation interpolates the node values at the points' z
    by the barycentric formula (Berrut and Trefethen, 2004), taking a node's
    values where z hits a node exactly, sums them against the azimuth
    polynomials (x + i*y)^m and projects the radial component out of the
    gradient, as sh_sum_grad does.  The module docstring says where it
    serves, and why its accuracy falls with the degree.
    """
    c = np.asarray(coeffs, dtype=float)
    L = math.isqrt(c.size) - 1
    nodes, weights, table = _latitude_tables(L)
    by_order = np.zeros(2 * (L + 1) ** 2)
    by_order[_order_slots(L)] = c
    # (value or d/dz, m, node, branch) -> the node values of G_m and dG_m/dz
    lat = table @ by_order.reshape(L + 1, L + 1, 2)
    g = (lat[..., 0] - 1j * lat[..., 1]).transpose(2, 0, 1)
    # columns (node, [G, dG/dz, m * G shifted to m - 1], m)
    node_values = np.zeros((L + 1, 3, L + 1), dtype=complex)
    node_values[:, :2] = g
    node_values[:, 2, :L] = np.arange(1, L + 1) * g[:, 0, 1:]
    node_values = node_values.reshape(L + 1, -1)

    def evaluate(points):
        p = np.asarray(points, dtype=float).reshape(-1, 3)
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        diff = z[:, None] - nodes
        hit = diff == 0.0
        bary = weights / np.where(hit, 1.0, diff)
        on_node = hit.any(axis=1)
        bary[on_node] = hit[on_node]
        bary /= bary.sum(axis=1, keepdims=True)
        powers = np.empty((p.shape[0], L + 1), dtype=complex)
        powers[:, 0] = 1.0
        powers[:, 1:] = (x + 1j * y)[:, None]
        np.cumprod(powers, axis=1, out=powers)
        sums = np.einsum("kcm,km->kc", (bary @ node_values).reshape(-1, 3, L + 1), powers)
        # d/dx Re(G w^m) = Re(m G w^(m-1)) and d/dy = -Im(m G w^(m-1))
        val, gz, gx, gy = sums[:, 0].real, sums[:, 1].real, sums[:, 2].real, -sums[:, 2].imag
        radial = gx * x + gy * y + gz * z
        return val, np.column_stack([gx - radial * x, gy - radial * y, gz - radial * z])

    return evaluate


class SphereQuadrature:
    """Product grid on S^2 and its spherical-harmonic transform.

    The nodes are the Gauss-Legendre cos(theta) of band // 2 + 1 latitudes
    times band + 1 uniform longitudes, latitude-major; the quadrature is exact
    (to rounding) on every harmonic of degree <= band, hence on products of
    harmonics whose total degree stays <= band.

    On a product grid a harmonic separates: Y_lm = P_lm(theta) * cos(m*phi)
    (or sin(|m|*phi)), where the latitude table P_lm = sqrt(2) * Q_lm *
    sin(theta)^m comes from _scaled_legendre at the grid's latitudes.  So
    synthesize sums each latitude's row of that table per order, then the
    orders' cosines and sines over longitude, and project is its adjoint
    against the quadrature weights (Driscoll and Healy, 1994).  Both cost
    O(ntheta * (L+1)^2 + nodes * L) and hold no (nodes x harmonics) matrix.

    Immutable apart from its caches: the latitude and longitude tables are
    built at the highest degree asked for so far, and a lower degree reads
    their leading slices; nodes and weights are built on first use.  Every
    array it hands out is read-only.  Use build_quadrature, which keeps one
    quadrature per band.
    """

    __slots__ = ("band", "_z", "_wz", "_nphi", "_nodes", "_weights", "_legendre", "_trig")

    def __init__(self, band):
        if band < 0:
            raise ValueError("band must be >= 0")
        self.band = band
        self._z, self._wz = _gauss_legendre(band // 2 + 1)
        self._nphi = band + 1
        self._nodes = self._weights = self._legendre = self._trig = None

    @property
    def size(self):
        return self._z.size * self._nphi

    @property
    def nodes(self):
        """Unit node points (size, 3), latitude-major."""
        if self._nodes is None:
            phis = 2.0 * math.pi * np.arange(self._nphi) / self._nphi
            sin_t = np.sqrt(1.0 - self._z**2)
            x = np.outer(sin_t, np.cos(phis)).ravel()
            y = np.outer(sin_t, np.sin(phis)).ravel()
            z = np.outer(self._z, np.ones(self._nphi)).ravel()
            self._nodes = _read_only(np.column_stack([x, y, z]))
        return self._nodes

    @property
    def weights(self):
        """Node weights (size,) against the surface measure."""
        if self._weights is None:
            weights = np.repeat(self._wz, self._nphi) * (2.0 * math.pi / self._nphi)
            self._weights = _read_only(weights)
        return self._weights

    def _tables(self, degree_max):
        """(latitude table [m, j, l] of shape (L+1, ntheta, L+1), trig (2L+2, nphi)).

        Row 2m of trig holds cos(m*phi_k) and row 2m + 1 sin(m*phi_k); m*k
        is reduced mod nphi before scaling, so every row is as exact as the
        first.
        """
        L = degree_max
        if self._legendre is None or self._legendre.shape[0] <= L:
            z = self._z
            table = np.zeros((L + 1, z.size, L + 1))
            for l, m, q, _ in _scaled_legendre(z, L, [L] * (L + 1), False):
                table[m, :, l] = q
            ms = np.arange(L + 1)
            table *= np.sqrt(1.0 - z**2)[None, :, None] ** ms[:, None, None]
            table[1:] *= math.sqrt(2.0)
            nphi = self._nphi
            angles = 2.0 * math.pi * (np.outer(ms, np.arange(nphi)) % nphi) / nphi
            trig = np.stack([np.cos(angles), np.sin(angles)], axis=1).reshape(-1, nphi)
            self._legendre = _read_only(table)
            self._trig = _read_only(trig)
        return self._legendre[: L + 1, :, : L + 1], self._trig[: 2 * (L + 1)]

    def synthesize(self, coeffs):
        """Values at the nodes of the sum of coeffs[k] * Y_k, shape (size,)."""
        c = np.asarray(coeffs, dtype=float)
        L = math.isqrt(c.size) - 1
        table, trig = self._tables(L)
        by_order = np.zeros(2 * (L + 1) ** 2)
        by_order[_order_slots(L)] = c
        # per order m, the latitude sums (ntheta, 2) of both branches
        lat = table @ by_order.reshape(L + 1, L + 1, 2)
        return (lat.transpose(1, 0, 2).reshape(self._z.size, -1) @ trig).ravel()

    def integrate_values(self, values):
        """Integral of node samples against the surface measure."""
        return float(self.weights @ np.asarray(values, dtype=float))

    def project(self, values, degree_max):
        """Spectral projection of node samples onto degree <= L: the adjoint of synthesize.

        Coefficient k is the quadrature sum of values * Y_k, exact for samples
        of a function of degree <= band - L.
        """
        L = degree_max
        table, trig = self._tables(L)
        v = np.asarray(values, dtype=float).reshape(self._z.size, self._nphi)
        lon = (v @ trig.T).reshape(self._z.size, L + 1, 2)
        lon *= (self._wz * (2.0 * math.pi / self._nphi))[:, None, None]
        by_order = table.transpose(0, 2, 1) @ lon.transpose(1, 0, 2)
        return SphericalFunction(by_order.ravel()[_order_slots(L)])

    def __repr__(self):
        return f"SphereQuadrature(band={self.band}, nodes={self.size})"


@cache
def build_quadrature(band):
    """The quadrature exact on all harmonics of degree <= band, one per band.

    Cached like the Gauss-Legendre rule: every caller of a band shares one
    SphereQuadrature and so its nodes, weights and transform tables.
    """
    return SphereQuadrature(band)


def integrate(f, quadrature):
    """Integral of f dv; exact for band-limited f when the band suffices."""
    if quadrature.band < f.degree:
        raise BandTooLow(
            f"quadrature band {quadrature.band} below function degree {f.degree}"
        )
    return quadrature.integrate_values(quadrature.synthesize(f.coeffs))


def mean_zero_decompose(f):
    """Split f = lambda * 1 + f0 with mean-zero f0.

    lambda is the mean (1/4pi) * integral of f, i.e. c_00 / sqrt(4pi); the
    remainder then integrates to zero, making the split a direct sum.
    """
    lam = float(f.coeffs[0]) / math.sqrt(FOUR_PI)
    c = f.coeffs.copy()
    c[0] = 0.0
    return lam, SphericalFunction(c)


def parity_decompose(f):
    """Split f into its even and odd parts under the antipodal map.

    Even part keeps even-degree coefficients, odd part the odd-degree ones;
    Y_lm(-p) = (-1)^l Y_lm(p).
    """
    ls = sh_degrees(f.degree)
    even = np.where(ls % 2 == 0, f.coeffs, 0.0)
    odd = np.where(ls % 2 == 1, f.coeffs, 0.0)
    return SphericalFunction(even), SphericalFunction(odd)


def laplacian(f):
    """Round Laplace-Beltrami: multiplies each degree-l coefficient by -l(l+1)."""
    ls = sh_degrees(f.degree)
    return SphericalFunction(f.coeffs * (-ls * (ls + 1.0)))
