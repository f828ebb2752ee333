"""Seeded inputs and the calls into systolab for each workload.

A workload is an endless, seeded stream of rows run in rounds of a fixed
make-up, so every run attempts whole rounds of the same kinds of operation.
`run` makes only library calls (the timed part of a row); `check` compares
the outputs with the reference evaluator.  Rows are timed in CPU seconds of
the process (`clock`), not wall seconds: on a shared host the wall time of
a row swings with the other tenants' load.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import checks
import reference as ref

#: The clock of every row time: CPU seconds of this process, all threads,
#: user and system.
clock = time.process_time

#: The acceptance directions, as (l, m, coefficient) triples.
ACCEPTANCE_DIRECTIONS = {
    "Y20": [(2, 0, 1.0)],
    "Y30": [(3, 0, 1.0)],
    "Y21+0.5*Y43": [(2, 1, 1.0), (4, 3, 0.5)],
    "Y10+Y20": [(1, 0, 1.0), (2, 0, 1.0)],
}


def coeffs_from_pairs(pairs):
    degree = max(l for l, _, _ in pairs)
    c = np.zeros((degree + 1) ** 2)
    for l, m, value in pairs:
        c[l * l + l + m] = value
    return c


def _signed(rng, low, high):
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(low, high))


def _unit(rng):
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)


class SweepLow:
    """Systole rows of the four acceptance directions, six to a round.

    Y20 and Y30 run twice a round, each time at a seeded t from the
    acceptance grid +-0.05, +-0.1; at about 8 s a row they are the bulk of
    the round.  Y21+0.5*Y43 runs once at t = +-0.1 with a seeded sign: between |t| =
    0.05 and 0.1 its cost swings from 13 to 22 s, which would set the spread
    of the whole round.  Y10+Y20 runs once at t = 0.1: the row whose
    reported systole has no witness (the known fault).  Every estimate uses
    seed 0, as the acceptance sweep does: the seed circles another seed
    draws can double the cost of a row.
    """

    name = "sweep-low"
    ROUND = ("Y20", "Y30", "Y20", "Y30", "Y21+0.5*Y43", "Y10+Y20")
    round_size = len(ROUND)
    #: The metric is built this many times per row; a build takes about
    #: 20 ms, so its time is reported as the median of the builds.
    BUILDS = 3

    def rows(self, rng):
        while True:
            for label in self.ROUND:
                if label == "Y10+Y20":
                    t = 0.1
                elif label == "Y21+0.5*Y43":
                    t = float(rng.choice((-0.1, 0.1)))
                else:
                    t = float(rng.choice((-0.1, -0.05, 0.05, 0.1)))
                yield {
                    "label": label,
                    "coeffs": coeffs_from_pairs(ACCEPTANCE_DIRECTIONS[label]),
                    "t": t,
                    "seed": 0,
                }

    def run(self, sl, row):
        f = sl.SphericalFunction(row["coeffs"])
        start = clock()
        builds = []
        for _ in range(self.BUILDS):
            begin = clock()
            g = sl.make_variation(f, row["t"])
            builds.append(clock() - begin)
        a = sl.area(g)
        report = sl.estimate_systole(g, seed=row["seed"])
        ratio = sl.systolic_ratio(a, report.systole)
        end = clock()
        witness = report.witness
        out = {
            "area": a,
            "systole": report.systole,
            "ratio": ratio,
            "witness_length": None if witness is None else witness.length,
            "curvature_min": report.curvature_min,
            "candidates": len(report.candidates),
            "witness": None if witness is None else witness.curve.vertices.copy(),
        }
        return out, end - start, statistics.median(builds)

    def check(self, row, out):
        return checks.sweep_row(row, out)

    def digest_fields(self, row, out):
        return [row["label"], row["t"], row["seed"], out["area"], out["systole"],
                out["ratio"], out["witness_length"], out["curvature_min"], out["candidates"]]


class MetricBuild:
    """Metric construction for dense directions of degree 2 to 8.

    One row per degree and round.  The direction of degree L has every
    coefficient of degree 1..L standard normal, drawn from (POOL_SEED, L),
    and is scaled so the reference maximum of |f| is 1, which puts the
    admissible bound at t = 1.  Round k uses it as f, -f, f(x, y, -z) or
    -f(x, y, -z), in turn: four rounds in a row share no coefficient vector,
    so a cache keyed on the direction cannot carry over, but sup_norm does
    the same work on each, so the number of rounds that fit in a run does
    not change the mix of row costs.  The
    directions do not depend on the workload seed: the cost of sup_norm
    varies 2-4x between directions of one degree.  The seed draws the row's
    t (0.05 <= |t| <= 0.95), the axis u, and the sign of the admissibility
    probes t = +-0.99 and +-1.01.
    """

    name = "metric-build"
    round_size = 7
    POOL_SEED = 20060130

    def __init__(self):
        self._pool = {}

    def direction(self, degree, k):
        if degree not in self._pool:
            c = np.zeros((degree + 1) ** 2)
            c[1:] = np.random.default_rng([self.POOL_SEED, degree]).normal(size=c.size - 1)
            self._pool[degree] = c / ref.dense_max_abs(c)
        c = self._pool[degree]
        if k % 2:
            c = -c
        if k // 2 % 2:
            c = c * ref.z_reflection_signs(degree)
        return c

    def rows(self, rng):
        k = 0
        while True:
            for degree in range(2, 9):
                side = float(rng.choice((-1.0, 1.0)))
                yield {
                    "label": f"degree{degree}",
                    "coeffs": self.direction(degree, k),
                    "t": _signed(rng, 0.05, 0.95),
                    "u": _unit(rng),
                    "t_inside": 0.99 * side,
                    "t_outside": 1.01 * side,
                }
            k += 1

    def run(self, sl, row):
        f = sl.SphericalFunction(row["coeffs"])
        start = clock()
        g = sl.make_variation(f, row["t"])
        built = clock()
        out = {
            "area": sl.area(g),
            "funk": sl.funk_transform(f, row["u"]),
            "length": sl.great_circle_length(g, row["u"]),
        }
        inside = clock()
        out["accepted_inside"] = _accepts(sl, f, row["t_inside"])
        outside = clock()
        out["refused_outside"] = not _accepts(sl, f, row["t_outside"])
        end = clock()
        # both accepted builds do the same work; report their median
        return out, end - start, statistics.median((built - start, outside - inside))

    def check(self, row, out):
        return checks.metric_row(row, out)

    def digest_fields(self, row, out):
        return [row["label"], row["t"], out["area"], out["funk"], out["length"],
                out["accepted_inside"], out["refused_outside"]]


def _accepts(sl, f, t):
    try:
        sl.make_variation(f, t)
    except sl.NonAdmissibleT:
        return False
    return True


WORKLOADS = {w.name: w for w in (SweepLow(), MetricBuild())}
