"""Geodesics, Birkhoff curve shortening, and the systole estimate.

The geodesic equation of a conformal metric w^2 g0 is integrated in ambient
coordinates: the tangential acceleration is -2 (grad rho . cdot) cdot +
|cdot|^2 grad rho with rho = log w, and the radial term -|cdot|^2 c keeps the
trajectory on the sphere (position renormalized, velocity re-tangented each
step).  No charts, no pole cases.

Curve shortening is Birkhoff's scheme on closed polygons: alternating
even/odd passes move each vertex toward the metric midpoint of its
neighbors.  A vertex move is proposed by one damped Newton step on the
local two-segment energy, whose gradient is that of the discrete energy E
at the vertex (one kernel, _energy_gradient, serves the passes and the
polish), and accepted only when the local length does not increase, which
makes every pass length-non-increasing by construction (the two local
segments of the vertices in one parity class tile the curve's edge set
exactly once).  A pass's lengths are the sums of the segments its second
half pass measured: each half pass evaluates w and grad w at the n edge
midpoints, and w at the n edge midpoints of its trial (metric._segments),
and nothing else.  A curve is measured once, when its shortening starts;
after that its length changes only where and when the curve moves.
A curve whose round length falls below 0.1 is flagged collapsed: it is
converging to a point, which the systole must exclude.  A curve freezes as
a discrete closed geodesic once a pass moves no vertex by FROZEN_RESIDUAL
or more.  A pass refuses a vertex step that would lengthen the curve, so a
curve can freeze where it is not stationary: the systole estimate keeps a
seed only if it froze and its max|grad E| is at most GEODESIC_GRAD_TOL.

Tightening a family of closed curves (tighten_sweepout) shortens every
member, and for a family that sweeps out the sphere its maximum bounds the
minimax level; the systole estimate does not use it.

Between chunks of passes every curve still moving is polished: Newton on
the stationarity system of the discrete energy first, and where Newton
gives up, a Levenberg-Marquardt descent on the same Jacobian that never
raises the energy.  A curve the passes alone would drag through a shallow
valley for a thousand passes becomes a geodesic in a chunk or two.  The
sign of the curvature sets how many passes a chunk holds (see
_polish_every), and whether Newton keeps a landing that raised the energy:
where the curvature is positive everywhere it does, because every closed
geodesic there is unstable and a curve that sank below its nearest one
reaches it only uphill (see _newton_polish).  The Jacobian is finite
differenced one vertex at a time, from the two edges that touch the moved
vertex: 5n edges per curve.  The moving curves are polished together, in
lockstep: one gradient call for all their Jacobians, one per trial step,
and one banded LAPACK solve per iteration, of the block-diagonal matrix of
their systems.  Each curve's polish is, bit for bit, the one it gets alone.

The systole estimate shortens its seed circles at 64 vertices (for the
default 128) and keeps one curve per distinct length, because the seeds
end on a handful of geodesics.  Each is refined by inserting its chord
midpoints and polishing, one doubling at a time: one polish per geodesic
instead of every pass of every seed at full resolution.  The discrete bias
is O(n^-2), so a coarse geodesic lies well inside the Newton basin of its
refinement.  Where every seed collapses after the long chunks of passes
(see _polish_every), the seeds are shortened again with short ones.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.linalg.lapack import dgbsv

from .errors import CurvatureNotPositive, StepTooLarge, SystolabError
from .harmonics import normalize_points
from .metric import (
    DiscreteClosedCurve,
    _batch_metric_lengths,
    _dots,
    _norms,
    _polygon_edges,
    _polygon_energy,
    _segments,
    _shifted,
    _sin_cos,
    circle_frame,
    min_curvature,
)
from .circles import TWO_PI, circle_points, find_signed_funk_axes

#: Round length below which a shortening curve counts as collapsed to a point.
COLLAPSE_THRESHOLD = 0.1

#: Default vertex count of the systole estimate's geodesics.
DEFAULT_VERTICES = 128

#: Per-pass vertex displacement below which a shortening curve freezes as a
#: discrete closed geodesic; only a curve that froze is kept as one.
FROZEN_RESIDUAL = 1e-10

#: max|grad E| above which a seed that froze at the final vertex count is
#: dropped: a pass refuses every vertex step that would lengthen its two
#: segments, so a curve can freeze where it is not stationary.  Every
#: candidate of the 24 sweep, 16 dense and 40 odd probe rows reads at most
#: 1.6e-11; the frozen non-geodesics of the steep rows read 6.3e-3 to 0.43.
GEODESIC_GRAD_TOL = 1e-8

#: Fixed shape of the systole estimate: random seed circles, the pass budget
#: of every shortening (the seed pool at each level, birkhoff_shorten), the
#: fewest vertices the seeds are shortened at before refinement (see
#: _coarse_vertices), and the length gap above which two seed geodesics
#: count as distinct.
SEED_CIRCLES = 20
SEED_PASSES = 1500
COARSE_VERTICES = 64
SAME_LENGTH = 1e-9

#: Birkhoff passes between two polishes of every curve still moving, on a
#: metric of positive curvature and on one whose curvature is somewhere <= 0.
POLISH_EVERY = 10
POLISH_EVERY_NONPOSITIVE = 60

#: Both polishes (Newton and the energy descent): iteration budget, the
#: max|grad E| below which a curve lands, and the cap on a vertex's step.
POLISH_ITERATIONS = 40
POLISH_GRAD_TOL = 1e-11
POLISH_STEP_CAP = 0.25

#: Drift multiples a stalled curve tries (largest first) in _extrapolate_batch.
EXTRAPOLATION_FACTORS = (32.0, 16.0, 8.0, 4.0, 2.0)

#: Slack allowed on the per-pass length monotonicity assertion.
MONOTONE_SLACK = 1e-13

#: Global count of monotonicity violations ever detected (should stay 0).
_length_increase_violations = 0


def length_increase_violations():
    """How many Birkhoff passes ever increased a curve's length (target: 0)."""
    return _length_increase_violations


# ---------------------------------------------------------------------------
# geodesic integration
# ---------------------------------------------------------------------------


class GeodesicPath:
    """Dense output of the geodesic integrator.

    points/velocities have shape (steps+1, 3) for a single start or
    (B, steps+1, 3) for a batch; lengths holds the cumulative metric length
    along the trajectory, integrated with the same fourth-order scheme.
    energy_drift is the max relative wobble of the conserved w^2 |cdot|^2.
    """

    __slots__ = ("points", "velocities", "lengths", "times", "energy_drift")

    def __init__(self, points, velocities, lengths, times, energy_drift):
        self.points = points
        self.velocities = velocities
        self.lengths = lengths
        self.times = times
        self.energy_drift = energy_drift

    @property
    def endpoint(self):
        return self.points[..., -1, :]


def _geodesic_rhs(g, c, v):
    """Time derivatives (position, velocity, metric length) of the state.

    One evaluation of (w, grad w) at c / |c| gives both grad rho =
    grad w / w for the acceleration and the metric speed w |v|.
    """
    w, gw = g.w_and_grad(c / np.linalg.norm(c, axis=-1, keepdims=True))
    grad = gw / w[:, None]
    speed2 = np.sum(v * v, axis=-1, keepdims=True)
    radial = np.sum(grad * v, axis=-1, keepdims=True)
    acc = -speed2 * c - 2.0 * radial * v + speed2 * grad
    return v, acc, w * np.sqrt(np.sum(v**2, axis=-1))


def integrate_geodesic(g, p, v, T, h=5e-3):
    """Integrate the geodesic of g from (p, v) for parameter time T.

    Classical RK4 with fixed step (h is shrunk so the steps tile T exactly);
    the state carries the cumulative metric length as an extra component.
    After each step the position is renormalized onto the sphere and the
    velocity re-tangented; a single-step drift beyond 1e-6 raises
    StepTooLarge.  p and v may be single vectors or batches of shape (B, 3).
    T, h, p and v must be finite.
    """
    if not (math.isfinite(h) and 0.0 < h <= 1e-2 + 1e-15):
        raise ValueError(f"step h={h} must be positive and finite, and at most 1e-2")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T={T} must be positive and finite")
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    c = normalize_points(np.atleast_2d(p)).copy()
    vel = np.atleast_2d(np.asarray(v, dtype=float)).astype(float).copy()
    if not np.all(np.isfinite(vel)):
        raise ValueError("initial velocity must be finite")
    vel -= np.sum(vel * c, axis=-1, keepdims=True) * c
    if np.any(np.sum(vel * vel, axis=-1) < 1e-24):
        raise ValueError("initial velocity must be a nonzero tangent vector")
    steps = max(1, int(math.ceil(T / h - 1e-12)))
    dt = T / steps
    B = c.shape[0]
    pts = np.empty((B, steps + 1, 3))
    vels = np.empty((B, steps + 1, 3))
    lens = np.empty((B, steps + 1))
    pts[:, 0] = c
    vels[:, 0] = vel
    lens[:, 0] = 0.0
    conserved0 = g.w_flat(c) ** 2 * np.sum(vel * vel, axis=-1)
    drift = 0.0
    for k in range(steps):
        k1c, k1v, k1s = _geodesic_rhs(g, c, vel)
        k2c, k2v, k2s = _geodesic_rhs(g, c + 0.5 * dt * k1c, vel + 0.5 * dt * k1v)
        k3c, k3v, k3s = _geodesic_rhs(g, c + 0.5 * dt * k2c, vel + 0.5 * dt * k2v)
        k4c, k4v, k4s = _geodesic_rhs(g, c + dt * k3c, vel + dt * k3v)
        c_new = c + (dt / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        vel = vel + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        dlen = (dt / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        r = np.linalg.norm(c_new, axis=-1)
        if np.max(np.abs(r - 1.0)) > 1e-6:
            raise StepTooLarge(
                f"position drifted {np.max(np.abs(r - 1.0)):.2e} off the sphere in "
                f"one step; shrink h={h}"
            )
        c = c_new / r[:, None]
        vel = vel - np.sum(vel * c, axis=-1, keepdims=True) * c
        pts[:, k + 1] = c
        vels[:, k + 1] = vel
        lens[:, k + 1] = lens[:, k] + dlen
        conserved = g.w_flat(c) ** 2 * np.sum(vel * vel, axis=-1)
        drift = max(drift, float(np.max(np.abs(conserved / conserved0 - 1.0))))

    times = dt * np.arange(steps + 1)
    if single:
        return GeodesicPath(pts[0], vels[0], lens[0], times, drift)
    return GeodesicPath(pts, vels, lens, times, drift)


# ---------------------------------------------------------------------------
# Birkhoff curve shortening: batched alternating passes
# ---------------------------------------------------------------------------


def _half_pass(g, X, parity, rows):
    """Update every vertex of one parity class of the curves X[rows], in place.

    The two segments touching the vertices of one parity class tile the edge
    set exactly once (n even), so enforcing local length non-increase at each
    vertex makes the whole pass length-non-increasing.  Each vertex takes
    one damped Newton step on its two-segment energy (w1 d1)^2 + (w2 d2)^2,
    whose gradient is 4 pi / n times grad E there (one _energy_gradient call
    for all of them): the Hessian is taken as its dominant term
    2 (w1^2 + w2^2) Id, and the step is capped at 0.45 max(d1, d2) so the
    vertex never jumps past its neighbors.  The vertex keeps its step only
    when its two segments, measured on a copy of the polygon that holds
    every proposal, are no longer than before; otherwise it stays where it
    was.  Returns (disp, seg, arcs), one row per curve of rows: the max
    vertex displacement, and the segment lengths w d and round arcs d of
    the polygon it leaves, edge k running from vertex k to k + 1.  A kept
    vertex's two edges are those the trial measured, every other edge is
    the one the gradient call measured, so both equal a fresh _segments
    evaluation bit for bit.
    """
    n = X.shape[1]
    cls = slice(parity, None, 2)
    prev = np.arange(parity - 1, n - 1, 2) % n
    sub = X[rows]
    grad, w, d = _energy_gradient(g, sub)
    w1, w2, d1, d2 = w[:, prev], w[:, cls], d[:, prev], d[:, cls]
    step = grad[:, cls] * (-(TWO_PI / n) / (w1 * w1 + w2 * w2))[..., None]
    cap = 0.45 * np.maximum(d1, d2)
    norm = _norms(step)
    scale = np.where(norm > cap, cap / np.maximum(norm, 1e-30), 1.0)
    x0 = sub[:, cls]
    x = x0 + scale[..., None] * step
    # the proposals go into a copy: x0 is a view of sub
    trial = sub.copy()
    trial[:, cls] = x / _norms(x)[..., None]
    seg, arcs = _segments(g, trial)
    keep = seg[:, prev] + seg[:, cls] <= w1 * d1 + w2 * d2
    chosen = np.where(keep[..., None], trial[:, cls], x0)
    X[rows, cls] = chosen
    # each edge touches one vertex of the class: edge k is its vertex's
    # second edge when k is in the class, its first otherwise
    kept = np.empty(arcs.shape, dtype=bool)
    kept[:, cls] = keep
    kept[:, prev] = keep
    return _norms(chosen - x0).max(axis=1), np.where(kept, seg, w * d), np.where(kept, arcs, d)


def _run_passes(g, X, lengths, active, collapsed, residuals, max_passes):
    """Drive Birkhoff passes on a batch of curves, in place.

    lengths (as the caller measured them), active, collapsed and residuals
    are per-curve state updated in place: a curve freezes once its per-pass
    displacement (its residual) falls below FROZEN_RESIDUAL (discrete
    geodesic) or its round length falls below the collapse threshold, and a
    frozen curve keeps the residual it froze with.  Nothing is measured
    before the first pass.  A pass measures only the curves active when it
    starts, from the segments and arcs its second half pass leaves (the
    curve's length is their sum in edge order, as _batch_metric_lengths
    takes it); a frozen curve does not move, so its length carries over.
    Each pass asserts the length monotonicity the acceptance rule
    guarantees; a violation beyond MONOTONE_SLACK is counted and raised.
    The passes run until max_passes or until every curve froze.  Returns
    the passes per curve, counting those it moved in.
    """
    global _length_increase_violations
    passes = np.zeros(X.shape[0], dtype=int)
    for _ in range(max_passes):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        d0 = _half_pass(g, X, 0, rows)[0]
        d1, seg, arcs = _half_pass(g, X, 1, rows)
        passes[rows] += 1
        new_lengths = np.sum(seg, axis=-1)
        increase = new_lengths - lengths[rows]
        if np.any(increase > MONOTONE_SLACK):
            _length_increase_violations += int(np.sum(increase > MONOTONE_SLACK))
            raise SystolabError(
                f"Birkhoff pass increased a curve length by {float(increase.max()):.3e}"
            )
        lengths[rows] = new_lengths
        residuals[rows] = np.maximum(d0, d1)
        newly_collapsed = rows[arcs.sum(axis=1) < COLLAPSE_THRESHOLD]
        collapsed[newly_collapsed] = True
        active[newly_collapsed] = False
        active &= residuals >= FROZEN_RESIDUAL
    return passes


# ---------------------------------------------------------------------------
# Newton polish: finish a near-geodesic to stationarity in a few jumps
# ---------------------------------------------------------------------------


def _edge_pulls(g, A, C):
    """Pulls of the segments A -> C (..., 3) on their two ends, in one harmonic call.

    Returns (tail, head, w, d): the pull on A and on C, w the length factor
    at each unit midpoint (A + C) / r (r the norm of A + C) and d the round
    length.  A segment w d pulls both its ends by w d^2 grad w / r at its
    midpoint, and each end by -w^2 d / sin d times the other end; the terms
    along the end itself are radial, and the tangent projection there would
    remove them.  Each segment's pulls are the ones it gets alone.
    """
    sums = A + C
    r = np.maximum(_norms(sums), 1e-30)[..., None]
    w, gw = g.w_and_grad((sums / r).reshape(-1, 3))
    w = w.reshape(A.shape[:-1])
    sins, dots = _sin_cos(A, C)
    d = np.arctan2(sins, dots)
    mid = (w * d * d)[..., None] * gw.reshape(A.shape) / r
    far = (w * w * d / np.maximum(sins, 1e-30))[..., None]
    return mid - far * C, mid - far * A, w, d


def _energy_gradient(g, V):
    """Tangential gradient of the discrete energy at each vertex, and its edges.

    V is one closed polygon (n, 3) or a stack of them (..., n, 3), evaluated
    in one harmonic call; each polygon's gradient is the one it gets alone.
    Returns (grad, w, d): w is the length factor at each unit edge midpoint
    and d the round length of each edge, edge k running from vertex k to
    vertex k + 1.  Vertex k sums the pull of its own edge k on its tail and
    the pull of edge k - 1 on its head (_edge_pulls), projected onto its
    tangent plane.
    """
    n = V.shape[-2]
    tail, head, w, d = _edge_pulls(g, V, _shifted(V, 1))
    grad = tail + _shifted(head, -1)
    grad -= _dots(grad, V)[..., None] * V
    return grad / (TWO_PI / n), w, d


def _jacobian_pattern(n):
    """Step and band layout of the stationarity Jacobian at n >= 3 vertices.

    The Jacobian of grad E = 0 in the 2n tangent coordinates is
    block-tridiagonal with cyclic corners (2x2 vertex blocks): moving vertex
    v moves the gradient at v and its two neighbors only.  Returns (delta,
    slots, place): delta the finite-difference step of _linearize.  J is
    solved in the zig-zag vertex order 0, n-1, 1, n-2, ..., where tangent
    coordinate x sits at place[x]: every vertex sits at most two places
    from its neighbors, so J is banded with kl = ku = 5, corners included.
    slots places the 12n entries of _linearize in LAPACK band storage,
    column 2v + j (vertex v along e_j) holding the rows 2u + d of u = v - 1,
    v, v + 1 in that order: entry (i, j) of the zig-zag J at [j, 10 + i - j]
    of a (2n, 16) array.
    """
    v = np.arange(n)[:, None, None, None]
    j = np.arange(2)[:, None, None]
    u = (v + np.arange(-1, 2)[:, None]) % n
    d = np.arange(2)
    place = (2 * np.minimum(2 * v, 2 * n - 1 - 2 * v) + np.arange(2)).ravel()
    col, row = place[2 * v + j], place[2 * u + d]
    return 1e-7, (16 * col + 10 + row - col).ravel(), place


def _band_solve(ab, rhs):
    """Solve the systems ab (k, m, 16) x = rhs (k, m) in one LAPACK call.

    ab holds each system in the band storage of _jacobian_pattern.  The k
    systems are the blocks of one block-diagonal band matrix, whose partial
    pivoting never leaves a block, so each is solved, bit for bit, as alone.
    A system that is not finite, or exactly singular (dgbsv's info names
    its zero pivot), gets NaN, and the others are solved again without it.
    """
    k, m = rhs.shape
    x = np.full((k, m), np.nan)
    rows = np.flatnonzero(np.isfinite(ab).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1))
    while rows.size:
        # the (k m, 16) C-order array is the (16, k m) band array in Fortran order
        _, _, solution, info = dgbsv(5, 5, ab[rows].reshape(-1, 16).T, rhs[rows].ravel(),
                                     overwrite_ab=True, overwrite_b=True)
        if info == 0:
            x[rows] = solution.reshape(rows.size, m)
            break
        rows = np.delete(rows, (info - 1) // m)
    return x


def _linearize(g, V, grad, pattern):
    """Linearize the stationarity system grad E = 0 at each polygon of V.

    V is a stack (B, n, 3) and grad its energy gradient.  F holds the
    components of grad in the tangent frame (e1, e2) of each vertex.  The
    Jacobian J is finite differenced, one column per vertex v and direction
    e_j: v moves by delta e_j (back on the sphere), every other vertex is
    renormalized, and the gradient at v and its two neighbors is assembled
    from the edges that touch them, as _energy_gradient sums it.  Those are
    the n edges of the renormalized polygon and the two edges of each of
    the 2n moved vertices, 5n per polygon in one _edge_pulls call, and each
    column equals, bit for bit, the difference of the full gradient of the
    polygon with that one vertex moved.  The three block bands go straight
    into LAPACK band storage.
    Returns (jmax, solve, move): jmax (B,) is max|J| over each polygon's
    bands; solve(mu, cap, which) the steps s of (J + mu I) s = -F of the
    polygons which (indices into V, mu one value each), each scaled down so
    that no vertex moves farther than cap, in one _band_solve (a singular
    system's step is NaN); and move(step, which) those polygons moved by
    their steps, back on the sphere.
    """
    delta, slots, place = pattern
    B, n, _ = V.shape
    e1, e2 = circle_frame(V)
    F = np.stack([_dots(grad, e1), _dots(grad, e2)], axis=-1)
    # U the polygon renormalized, P[:, j, v] its vertex v moved along e_j
    U = V / _norms(V)[..., None]
    P = V[:, None] + delta * np.stack([e1, e2], axis=1)
    P /= _norms(P)[..., None]
    before, after = _shifted(U, -1)[:, None], _shifted(U, 1)[:, None]
    # edge sets: the polygon's own, then U[v - 1] -> P[j, v] and P[j, v] -> U[v + 1]
    tail, head = _edge_pulls(g, np.concatenate([U[:, None], before, before, P], axis=1),
                             np.concatenate([after, P, after, after], axis=1))[:2]
    # the gradient at v - 1, v and v + 1 for each moved vertex v, as
    # _energy_gradient sums it: the tail pull of the vertex's own edge plus
    # the head pull of the edge before it, projected at the vertex
    G = np.stack([tail[:, 1:3] + _shifted(head[:, :1], -2),
                  tail[:, 3:] + head[:, 1:3],
                  _shifted(tail[:, :1], 1) + head[:, 3:]], axis=2)
    W = np.stack(np.broadcast_arrays(before, P, after), axis=2)
    G -= _dots(G, W)[..., None] * W
    G /= TWO_PI / n
    # components in the frames of v - 1, v and v + 1, minus F there
    frames = [np.stack([_shifted(e, k) for k in (-1, 0, 1)], axis=1)[:, None] for e in (e1, e2)]
    Fp = np.stack([_dots(G, e) for e in frames], axis=-1)
    Fu = np.stack([_shifted(F, k) for k in (-1, 0, 1)], axis=1)[:, None]
    values = np.zeros((B, 2 * n, 16))
    # columns (v, j), rows (u, d) in the order of slots
    values.reshape(B, -1)[:, slots] = ((Fp - Fu) / delta).transpose(0, 3, 1, 2, 4).reshape(B, -1)
    rhs = -F.reshape(B, 2 * n)[:, np.argsort(place)]

    def solve(mu, cap, which):
        data = values[which]
        data[..., 10] += mu[:, None]
        steps = _band_solve(data, rhs[which])[:, place]
        worst = np.hypot(steps[:, 0::2], steps[:, 1::2]).max(axis=1)
        big = worst > cap
        steps[big] *= (cap / worst[big])[:, None]
        return steps

    def move(step, which):
        Vt = V[which] + (step[:, 0::2, None] * e1[which] + step[:, 1::2, None] * e2[which])
        return Vt / _norms(Vt)[..., None]

    return np.max(np.abs(values), axis=(1, 2)), solve, move


def _newton_polish(g, V0):
    """Jump a stack of near-geodesics (B, n, 3) to stationarity by Newton.

    Solves grad E = 0 in the 2n tangent coordinates of the current vertices,
    on the Jacobian of _linearize.  The gradient the line search computed at
    the accepted point starts the next iteration, so an iteration costs one
    Jacobian call plus one call per line-search trial.  Closed geodesics
    come in families (rotation along the curve, ambient isometries), which
    makes the Jacobian rank-deficient, so the step solves the
    Levenberg-Marquardt system (J + mu I) s = -F with mu = 1e-10 max|J|: mu
    keeps the banded LU nonsingular along those null modes while moving the
    step elsewhere only at the 1e-10 relative level.  A non-finite step (a
    system still singular) gives up.  The step is trust-region capped per
    vertex so inflection zones of the energy landscape are crossed in
    bounded downhill slides.
    A curve lands once max|grad E| < POLISH_GRAD_TOL.  Where the curvature
    is somewhere <= 0 (min_curvature, the sign _polish_every reads), a
    landing counts only when the discrete energy did not increase beyond a
    1e-11 relative slack: there the passes can carry a curve down to a
    shorter geodesic than the one nearest it, and an uphill jump would stop
    it at a longer one.  Where K > 0 everywhere, every closed geodesic is
    unstable, so a curve whose energy sank below its nearest geodesic
    reaches that geodesic only uphill, and every landing counts.

    The curves run in lockstep: an iteration linearizes every curve still
    running in one call, and each line-search trial evaluates the curves
    still searching in one call, so each curve takes the steps it takes
    alone.  Returns (V, landed): landed marks the curves polished, and V
    holds them polished and every other curve as it came.
    """
    B = V0.shape[0]
    landed = np.zeros(B, dtype=bool)
    pattern = _jacobian_pattern(V0.shape[1])
    V = V0.copy()
    grad = _energy_gradient(g, V)[0]
    fnorm = np.max(_norms(grad), axis=-1)
    running = np.ones(B, dtype=bool)
    for _ in range(POLISH_ITERATIONS):
        landed |= running & (fnorm < POLISH_GRAD_TOL)
        running &= ~landed
        rows = np.flatnonzero(running)
        if rows.size == 0:
            break
        jmax, solve, move = _linearize(g, V[rows], grad[rows], pattern)
        step = solve(1e-10 * jmax, POLISH_STEP_CAP, np.arange(rows.size))
        finite = np.all(np.isfinite(step), axis=1)
        moved = np.zeros(rows.size, dtype=bool)
        for scale in (1.0, 0.5, 0.25, 0.125, 0.0625):
            trial = np.flatnonzero(finite & ~moved)
            if trial.size == 0:
                break
            Vt = move(scale * step[trial], trial)
            # the accepted trial's gradient starts the next iteration
            gt = _energy_gradient(g, Vt)[0]
            ft = np.max(_norms(gt), axis=-1)
            ok = (ft < fnorm[rows[trial]] * (1.0 - 1e-3)) | (ft < POLISH_GRAD_TOL)
            accepted = rows[trial[ok]]
            V[accepted], grad[accepted], fnorm[accepted] = Vt[ok], gt[ok], ft[ok]
            moved[trial[ok]] = True
        # a non-finite step or a line search that never lowered |grad E|
        running[rows[~moved]] = False
    rows = np.flatnonzero(landed)
    if rows.size and not min_curvature(g) > 0.0:
        after, before = _polygon_energy(g, np.stack([V[rows], V0[rows]]))
        landed[rows[after > before * (1.0 + 1e-11)]] = False
    V[~landed] = V0[~landed]
    return V, landed


def _energy_descent(g, V0):
    """Slide a stack of near-geodesics (B, n, 3) downhill to stationarity.

    Newton's line search accepts any drop of |grad E|, so near a saddle it
    can climb to a higher critical point, and where the curvature is
    somewhere <= 0 the energy check then rejects the result (see
    _newton_polish).  This polish only goes down: Levenberg-Marquardt on the
    Jacobian of _linearize, whose step (J + mu I) s = -F is taken only when
    the discrete energy does not rise.  mu starts at 1e-3 max|J|, grows
    tenfold on a rejected trial (at most 12 per iteration) and shrinks
    tenfold on an accepted one, so the step moves between a short gradient
    step and a Newton step.  Steps are capped at POLISH_STEP_CAP per vertex,
    and the iteration budget is Newton's POLISH_ITERATIONS.  A curve lands
    once max|grad E| < POLISH_GRAD_TOL with round length >=
    COLLAPSE_THRESHOLD, and gives up when the budget runs out, a trial
    never lowers the energy, or the round length falls below the threshold
    (the curve is heading to a point).

    The curves run in lockstep, each with its own mu: an iteration
    linearizes every curve still running in one call, and a trial round
    solves and measures the curves still searching together, so each curve
    takes the steps it takes alone.  Returns (V, landed): landed marks the
    curves polished, and V holds them polished and every other curve as it
    came.
    """
    B = V0.shape[0]
    landed = np.zeros(B, dtype=bool)
    pattern = _jacobian_pattern(V0.shape[1])
    V = V0.copy()
    energy = _polygon_energy(g, V)
    grad = _energy_gradient(g, V)[0]
    mu = np.empty(B)
    running = np.ones(B, dtype=bool)
    for it in range(POLISH_ITERATIONS):
        running &= _polygon_edges(V)[1].sum(axis=-1) >= COLLAPSE_THRESHOLD
        landed |= running & (np.max(_norms(grad), axis=-1) < POLISH_GRAD_TOL)
        running &= ~landed
        rows = np.flatnonzero(running)
        if rows.size == 0:
            break
        jmax, solve, move = _linearize(g, V[rows], grad[rows], pattern)
        if it == 0:
            mu[rows] = 1e-3 * jmax
        searching = np.ones(rows.size, dtype=bool)
        for _ in range(12):
            trial = np.flatnonzero(searching)
            if trial.size == 0:
                break
            step = solve(mu[rows[trial]], POLISH_STEP_CAP, trial)
            finite = np.all(np.isfinite(step), axis=1)
            trial, step = trial[finite], step[finite]
            if trial.size:
                Vt = move(step, trial)
                energies = _polygon_energy(g, Vt)
                ok = energies <= energy[rows[trial]]
                V[rows[trial[ok]]], energy[rows[trial[ok]]] = Vt[ok], energies[ok]
                searching[trial[ok]] = False
            mu[rows[searching]] *= 10.0
        running[rows[searching]] = False
        moved = rows[~searching]
        if moved.size:
            mu[moved] /= 10.0
            grad[moved] = _energy_gradient(g, V[moved])[0]
    V[~landed] = V0[~landed]
    return V, landed


def _extrapolate_batch(g, X, active, lengths, drift):
    """Aitken-style acceleration of slowly sliding curves, in place.

    A curve drifting through near-geodesic shapes (a shallow valley of the
    length functional) moves O(1/n^2) per pass; extrapolating along the
    drift of the last chunk jumps many passes at once.  A jump is accepted
    per curve only when it does not lengthen the curve and keeps every edge
    well short of a half turn, so monotonicity is preserved.  The lengths
    of the curves that jump are updated in place.
    """
    taken = np.zeros(X.shape[0], dtype=bool)
    for factor in EXTRAPOLATION_FACTORS:
        trial = np.flatnonzero(active & ~taken)
        if trial.size == 0:
            break
        Y = X[trial] + factor * drift[trial]
        Y /= np.maximum(_norms(Y), 1e-30)[..., None]
        seg, arcs = _segments(g, Y)
        new_lengths = np.sum(seg, axis=-1)
        ok = (new_lengths <= lengths[trial]) & (arcs.max(axis=1) < 1.4)
        good = trial[ok]
        X[good] = Y[ok]
        lengths[good] = new_lengths[ok]
        taken[good] = True


def _polish_every(g):
    """Birkhoff passes between two polishes of the curves shortened on g.

    A polish lands on the geodesic nearest the curve.  Where the curvature
    K is positive everywhere, every closed geodesic is unstable (a constant
    normal variation lowers its length at second order by the integral of
    K), so the passes drift away from every geodesic, toward a point: the
    sooner the polish, the fewer passes are spent and the fewer curves
    collapse.  Where K <= 0 somewhere, the passes can carry a curve down to
    a shorter geodesic than the one nearest it after a few passes, so the
    curve slides longer first.  K is exact, and its sign is read from its
    minimum over the nodes of the check grid (min_curvature).  The same
    sign decides whether a Newton landing that raised the energy counts
    (_newton_polish).
    """
    return POLISH_EVERY if min_curvature(g) > 0.0 else POLISH_EVERY_NONPOSITIVE


def _polish(g, X):
    """Polish a stack X (B, n, 3): Newton, and the descent where Newton gives up.

    Where the curvature is positive everywhere, Newton keeps its uphill
    landings, so the descent gets only the curves Newton never brought
    below POLISH_GRAD_TOL; elsewhere it also gets those landings.  The
    descent starts from the curve's original shape.  Returns (V, landed) as
    the two polishes do: a curve both give up on comes back as it came.
    """
    V, landed = _newton_polish(g, X)
    rest = np.flatnonzero(~landed)
    if rest.size:
        V[rest], landed[rest] = _energy_descent(g, X[rest])
    return V, landed


def _shorten_batch(g, X, polish_every):
    """Shorten a batch of closed polygons in place until stationary.

    Runs at most SEED_PASSES passes, in chunks of polish_every Birkhoff
    passes (callers pass _polish_every(g), or POLISH_EVERY to polish sooner)
    alternating with drift extrapolation and a polish of every curve that
    has not yet frozen, after every chunk: Newton first, and the energy
    descent where Newton gives up.  The curves are polished together by one
    _polish call, with one linear solve per iteration for all of them, and
    each curve's polish is the one it gets alone.  Each polish is followed
    by a measuring pass so the reported residual is an honest per-pass
    vertex displacement.  Every curve starts moving: no caller passes a
    point curve (birkhoff_shorten refuses one, and the systole estimate
    shortens great circles and polished geodesics).  The batch is measured
    once; then the passes, the accepted jumps and one measurement of the
    curves the polish landed (the others come back as they went in) keep
    each length equal, bit for bit, to a fresh _batch_metric_lengths.
    Returns (lengths, residuals, collapsed, passes), passes counting
    per curve the passes it moved in: a curve moves in every pass until it
    freezes, so its count is the one it gets alone.
    """
    B = X.shape[0]
    active = np.ones(B, dtype=bool)
    collapsed = np.zeros(B, dtype=bool)
    lengths = _batch_metric_lengths(g, X)
    residuals = np.full(B, np.inf)
    passes = np.zeros(B, dtype=int)
    # the curve active longest moved in every pass, so passes.max() is the
    # number of passes the batch ran
    while active.any() and passes.max() < SEED_PASSES:
        chunk = min(polish_every, SEED_PASSES - passes.max())
        before = X.copy()
        passes += _run_passes(g, X, lengths, active, collapsed, residuals, chunk)
        if not active.any() or passes.max() >= SEED_PASSES:
            break
        _extrapolate_batch(g, X, active, lengths, X - before)
        rows = np.flatnonzero(active)
        V, landed = _polish(g, X[rows])
        X[rows] = V
        if landed.any():
            lengths[rows[landed]] = _batch_metric_lengths(g, V[landed])
        passes += _run_passes(g, X, lengths, active, collapsed, residuals, 1)
    return lengths, residuals, collapsed, passes


class GeodesicResult:
    """A curve shortened to (or toward) a closed geodesic of g.

    residual is the max vertex displacement of the final Birkhoff pass;
    collapsed marks curves that shrank below the round-length threshold and
    are heading to a point, which the systole must exclude.
    """

    __slots__ = ("curve", "length", "residual", "collapsed", "passes")

    def __init__(self, curve, length, residual, collapsed, passes):
        self.curve = curve
        self.length = length
        self.residual = residual
        self.collapsed = collapsed
        self.passes = passes

    def __repr__(self):
        tag = "collapsed" if self.collapsed else f"residual={self.residual:.2e}"
        return f"GeodesicResult(length={self.length:.12f}, {tag}, passes={self.passes})"


def birkhoff_shorten(g, curve):
    """Shorten one closed curve to a discrete closed geodesic of g.

    Runs alternating-parity Birkhoff passes (with Newton polish acceleration)
    until the per-pass vertex displacement drops below FROZEN_RESIDUAL or
    SEED_PASSES passes are spent.  Every pass is length-non-increasing; the
    curve is flagged collapsed when its round length falls below 0.1.
    """
    if curve.is_point:
        raise ValueError("cannot shorten a point curve")
    n = curve.vertices.shape[0]
    if n % 2 != 0:
        raise ValueError("Birkhoff passes need an even number of vertices")
    X = curve.vertices[None].copy()
    lengths, residuals, collapsed, passes = _shorten_batch(g, X, _polish_every(g))
    return GeodesicResult(DiscreteClosedCurve(X[0]), float(lengths[0]), float(residuals[0]),
                          bool(collapsed[0]), int(passes[0]))


# ---------------------------------------------------------------------------
# tightening a family
# ---------------------------------------------------------------------------


class TightenResult:
    """Outcome of tightening a family of closed curves.

    width is the family maximum after the passes (an upper bound for the
    minimax level of a family that sweeps out the sphere); witness is the
    maximal member shortened all the way to a discrete closed geodesic (None
    if it collapsed); trace records (iteration, max_length, argmax_index)
    per pass.
    """

    __slots__ = ("width", "witness", "trace")

    def __init__(self, width, witness, trace):
        self.width = width
        self.witness = witness
        self.trace = trace


def tighten_sweepout(g, curves, passes):
    """Shorten every member of a family of closed curves; report its maximum.

    curves is a sequence of DiscreteClosedCurve sharing one even vertex
    count.  Every member that is not a point curve runs up to `passes`
    Birkhoff passes, stopping once all of them froze; point curves stay
    put.  The family is measured once, before the first pass, and each
    pass updates the lengths of the members it moved; trace row k is (k,
    max_length, argmax_index) after pass k.  The member attaining the
    width is then polished into a witness geodesic.
    For a family that sweeps out the sphere, the width after any number of
    length-non-increasing passes is a certified upper bound for its minimax
    level.
    """
    counts = {c.vertices.shape[0] for c in curves}
    if len(counts) != 1 or counts.pop() % 2 != 0:
        raise ValueError("family members must share one even vertex count")
    X = np.stack([c.vertices for c in curves]).astype(float)
    active = np.array([not c.is_point for c in curves])
    collapsed = np.zeros(len(curves), dtype=bool)
    residuals = np.where(active, np.inf, 0.0)
    lengths = _batch_metric_lengths(g, X)
    trace = [(0, float(lengths.max()), int(np.argmax(lengths)))]
    for k in range(1, passes + 1):
        if not active.any():
            break
        _run_passes(g, X, lengths, active, collapsed, residuals, 1)
        trace.append((k, float(lengths.max()), int(np.argmax(lengths))))
    width = float(lengths.max())
    arg = int(np.argmax(lengths))
    witness = None
    if not collapsed[arg] and lengths[arg] > COLLAPSE_THRESHOLD:
        witness = birkhoff_shorten(g, DiscreteClosedCurve(X[arg]))
    return TightenResult(width, witness, trace)


# ---------------------------------------------------------------------------
# the systole estimate
# ---------------------------------------------------------------------------


class SystoleReport:
    """Everything the systole estimate produced.

    witness is the shortest seed geodesic, and systole is its length;
    candidates lists (source_tag, length) pairs in seed order, one per
    distinct seed geodesic when the seeds were refined (see
    estimate_systole); curvature_min is the minimum of the exact Gauss
    curvature over the nodes of the check grid (min_curvature).
    """

    __slots__ = ("systole", "witness", "candidates", "curvature_min", "warnings")

    def __init__(self, systole, witness, candidates, curvature_min, warnings_log):
        self.systole = systole
        self.witness = witness
        self.candidates = candidates
        self.curvature_min = curvature_min
        self.warnings = warnings_log

    def to_json(self):
        return {
            "systole": self.systole,
            "witness_length": None if self.witness is None else self.witness.length,
            "candidates": [[tag, length] for tag, length in self.candidates],
            "curvature_min": self.curvature_min,
            "warnings": list(self.warnings),
        }

    def __repr__(self):
        return (
            f"SystoleReport(systole={self.systole:.12f}, "
            f"candidates={len(self.candidates)}, curvature_min={self.curvature_min})"
        )


def _coarse_vertices(n):
    """The vertex count the seeds are shortened at before refinement to n.

    The smallest n / 2^k that is even and >= COARSE_VERTICES, so n = 128
    gives 64, and every n <= 96 (or n / 2 odd) gives n itself: a single
    resolution.  Where the curvature is somewhere negative, 32 vertices
    are too coarse: seeds collapse or slide to longer geodesics.
    """
    while n % 4 == 0 and n // 2 >= COARSE_VERTICES:
        n //= 2
    return n


def _prolong(V):
    """The closed polygons V (B, n, 3) with their normalized chord midpoints inserted."""
    mids = V + _shifted(V, 1)
    out = np.empty((V.shape[0], 2 * V.shape[1], 3))
    out[:, 0::2] = V
    out[:, 1::2] = mids / _norms(mids)[..., None]
    return out


def _refine(g, V, n):
    """Prolong discrete geodesics (B, m, 3) to n vertices, polishing after each doubling.

    Where a polish gives up, the prolonged shape goes on unpolished, and
    the passes at n shorten it from there.
    """
    while V.shape[1] < n:
        V = _polish(g, _prolong(V))[0]
    return V


def _landed(tags, residuals, collapsed, passes, warnings_log):
    """Indices of the shortened seeds that froze as discrete geodesics.

    A seed is kept only if it froze: residual below FROZEN_RESIDUAL and not
    collapsed.  Collapsed curves are left out silently; a curve still
    sliding is left out with a line in warnings_log, because it is neither a
    geodesic nor a certified bound.
    """
    kept = []
    for k, tag in enumerate(tags):
        if collapsed[k]:
            continue
        if not residuals[k] < FROZEN_RESIDUAL:
            warnings_log.append(
                f"{tag} dropped: still sliding after {passes[k]} passes "
                f"(residual {residuals[k]:.2e})"
            )
            continue
        kept.append(k)
    return kept


def _stationary(g, X, tags, rows, warnings_log):
    """The rows of X (B, n, 3) whose max|grad E| is at most GEODESIC_GRAD_TOL.

    Each other row is left out with a line in warnings_log: it froze without
    being a discrete geodesic.
    """
    if not rows:
        return []
    worst = np.max(_norms(_energy_gradient(g, X[rows])[0]), axis=-1)
    kept = []
    for k, value in zip(rows, worst.tolist()):
        if value <= GEODESIC_GRAD_TOL:
            kept.append(k)
        else:
            warnings_log.append(
                f"{tags[k]} dropped: froze but not stationary (max|grad E| {value:.2e})"
            )
    return kept


def _distinct(lengths, rows):
    """One row per distinct geodesic among rows, in index order.

    Sorted by length, a row whose length exceeds the previous one by more
    than SAME_LENGTH opens a new geodesic; each geodesic keeps its member
    of lowest index.
    """
    kept = []
    previous = -math.inf
    for k in sorted(rows, key=lambda k: lengths[k]):
        if lengths[k] - previous > SAME_LENGTH:
            kept.append(k)
        else:
            kept[-1] = min(kept[-1], k)
        previous = lengths[k]
    return sorted(kept)


def _seed_geodesics(g, axes, tags, n, polish_every, warnings_log):
    """Shorten the great circles of axes to closed geodesics of g at n vertices.

    The circles are shortened at _coarse_vertices(n) vertices, polished
    after every polish_every passes.  When that is less than n, one seed per
    distinct geodesic (_distinct) is refined to n vertices (_refine) and
    shortened once more at n, where a refinement that landed freezes after
    one pass.  At n a seed that froze is kept only if it is stationary
    (_stationary).  Returns (tag, GeodesicResult) pairs in seed order, whose
    passes count the coarse and the fine passes; _landed and _stationary
    log the seeds they drop in warnings_log.
    """
    X = circle_points(axes, 0.0, _coarse_vertices(n))
    lengths, residuals, collapsed, passes = _shorten_batch(g, X, polish_every)
    kept = _landed(tags, residuals, collapsed, passes, warnings_log)
    if X.shape[1] == n:
        kept = _stationary(g, X, tags, kept, warnings_log)
    elif kept:
        kept = _distinct(lengths, kept)
        coarse_passes = passes[kept]
        tags = [tags[k] for k in kept]
        X = _refine(g, X[kept], n)
        lengths, residuals, collapsed, passes = _shorten_batch(g, X, polish_every)
        passes += coarse_passes
        kept = _landed(tags, residuals, collapsed, passes, warnings_log)
        kept = _distinct(lengths, _stationary(g, X, tags, kept, warnings_log))
    return [(tags[k], GeodesicResult(DiscreteClosedCurve(X[k]), float(lengths[k]),
                                     float(residuals[k]), False, int(passes[k])))
            for k in kept]


def estimate_systole(g, n=DEFAULT_VERTICES, seed=0):
    """Estimate the systole of g as the shortest seed circle's geodesic.

    Great circles are shortened to closed geodesics by _seed_geodesics: one
    at each signed extreme axis of the Funk transform of the direction,
    where the short geodesics live at first order (none for the round metric
    or an odd direction), and SEED_CIRCLES random ones.  Collapsed curves
    are excluded, and so is a curve that did not freeze (FROZEN_RESIDUAL)
    within SEED_PASSES passes or froze without being stationary
    (GEODESIC_GRAD_TOL), with a warning.  n must be even and >= 32, so
    that the two parity classes of the passes tile the edges.

    Where the seeds slid POLISH_EVERY_NONPOSITIVE passes before each polish
    (see _polish_every) and every one collapsed or kept sliding, the same
    circles are shortened again with a polish every POLISH_EVERY passes,
    and the report carries the dropped-seed warnings of that attempt.  When
    no attempt leaves a geodesic, SystolabError is raised with every
    warning line.  Returns a SystoleReport whose witness is the shortest
    seed geodesic and whose systole is its length.
    """
    if n < 32 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 32")
    warnings_log = []
    curvature_min = min_curvature(g)
    if curvature_min <= 0.0:
        message = f"metric has curvature min {curvature_min:.4e} <= 0"
        warnings.warn(message, CurvatureNotPositive)
        warnings_log.append(message)

    rng = np.random.default_rng(seed)
    seed_axes = rng.normal(size=(SEED_CIRCLES, 3))
    seed_axes /= np.linalg.norm(seed_axes, axis=-1, keepdims=True)
    tags = [f"seed{k}" for k in range(SEED_CIRCLES)]
    signed = None if g.is_round else find_signed_funk_axes(g.f)
    if signed is not None:
        seed_axes = np.concatenate([np.asarray(signed), seed_axes], axis=0)
        tags = [f"funk-circle{k}" for k in range(len(signed))] + tags

    chunks = [_polish_every(g)]
    if chunks[0] == POLISH_EVERY_NONPOSITIVE:
        chunks.append(POLISH_EVERY)
    dropped = []
    for polish_every in chunks:
        attempt = []
        found = _seed_geodesics(g, seed_axes, tags, n, polish_every, attempt)
        if found:
            break
        dropped += attempt
    else:
        lines = ["no seed circle shortened to a closed geodesic", *warnings_log, *dropped]
        raise SystolabError("\n".join(lines))
    warnings_log += attempt
    candidates = [(f"geodesic-{tag}", result.length) for tag, result in found]
    witness = min((result for _, result in found), key=lambda result: result.length)
    return SystoleReport(witness.length, witness, candidates, curvature_min, warnings_log)
