"""Exhaustive certification of blocking / minimality / triviality / planarity.

The blocking scan accumulates dually: for each point of the set it bumps the
counters of all hyperplanes through that point, so the work is
|S| * (hyperplanes per point) counter updates instead of one incidence test
per (hyperplane, point) pair.  Counters saturate at 255, which is safe:
blocking needs `>= 1` and minimality only distinguishes 1 from `>= 2`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import pg
from .pg import PointSet, ProjSpace, Subspace, span_in

_SAT = 255
_UNCOVERED_SAMPLE = 32
_SCAN_CHUNK = 1 << 20


@dataclass
class CoverageResult:
    space: ProjSpace
    set_size: int
    counts: np.ndarray  # uint8, one cell per hyperplane rank, saturating
    uncovered_total: int
    uncovered_sample: list[int]
    checksum: int
    elapsed_ms: float

    @property
    def blocking(self) -> bool:
        return self.uncovered_total == 0


@dataclass
class MinimalityResult:
    essential: list[tuple[int, int]]  # (point rank, tangent hyperplane rank)
    inessential: list[int]
    elapsed_ms: float

    @property
    def minimal(self) -> bool:
        return not self.inessential


def _checksum(ps: PointSet) -> int:
    return hash((ps.space, ps.ranks.tobytes()))


def _first_zeros(counts: np.ndarray, k: int) -> list[int]:
    """The first k indices of zero cells (k at most the number of zeros),
    scanned in chunks so that no index array over all zeros is built."""
    found: list[int] = []
    lo = 0
    while len(found) < k:
        hits = np.flatnonzero(counts[lo:lo + _SCAN_CHUNK] == 0)
        found.extend(lo + int(x) for x in hits[:k - len(found)])
        lo += _SCAN_CHUNK
    return found


def blocking_check(ps: PointSet) -> CoverageResult:
    """Coverage counter per hyperplane rank; blocking iff every counter >= 1.

    Saturating increments are scattered straight into the counters: in any
    order they leave min(total, 255) in each cell.  The counter array (one
    byte per hyperplane) is checked against the memory budget before it is
    allocated."""
    t0 = time.perf_counter()
    space = ps.space
    pg.check_budget(space.n_points, f"a hyperplane counter over {space}")
    counts = np.zeros(space.n_points, dtype=np.uint8)
    for v in ps.vecs():
        hyps = pg.incident_dual_ranks(space, v)
        c = counts[hyps]
        counts[hyps] = c + (c < _SAT)
    uncovered_total = counts.size - int(np.count_nonzero(counts))
    return CoverageResult(
        space=space,
        set_size=len(ps),
        counts=counts,
        uncovered_total=uncovered_total,
        uncovered_sample=_first_zeros(counts, min(uncovered_total,
                                                  _UNCOVERED_SAMPLE)),
        checksum=_checksum(ps),
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


def minimality_check(ps: PointSet, coverage: CoverageResult) -> MinimalityResult:
    """A point is essential iff some hyperplane through it has counter exactly
    1 (that hyperplane is then a tangent witness)."""
    if coverage.checksum != _checksum(ps):
        raise ValueError("coverage array does not belong to this point set")
    t0 = time.perf_counter()
    counts = coverage.counts
    essential, inessential = [], []
    for rank, v in zip(ps.ranks, ps.vecs()):
        hyps = pg.incident_dual_ranks(ps.space, v)
        tangent = hyps[counts[hyps] == 1]
        if tangent.size:
            essential.append((int(rank), int(tangent.min())))
        else:
            inessential.append(int(rank))
    return MinimalityResult(essential, inessential,
                            (time.perf_counter() - t0) * 1e3)


def naive_coverage(ps: PointSet) -> np.ndarray:
    """Independent double-loop oracle: for each hyperplane, count incident set
    points.  Only for spaces small enough to enumerate densely."""
    space = ps.space
    if space.n_points > 10**4:
        raise ValueError("naive oracle restricted to <= 10^4 hyperplanes")
    duals = pg.unrank_batch(space, np.arange(space.n_points))
    vecs = ps.vecs()
    counts = np.zeros(space.n_points, dtype=np.int64)
    for v in vecs:
        prod = pg.dot(space, duals, np.broadcast_to(v, duals.shape))
        counts += prod == 0
    return counts


def triviality_check(ps: PointSet) -> bool:
    """True iff the set contains a full line.  Any contained line is spanned
    by two of its points v_i, v_j, and its other points are v_i + l.v_j for
    the q - 1 nonzero l, so the pair scan is exact.  For each i the pairs
    (i, j > i) are tested one l at a time in a batch, keeping only the j whose
    points so far all lie in the set."""
    space = ps.space
    if len(ps) < space.q + 1:
        return False
    f = space.field
    vecs = ps.vecs()
    for i in range(len(vecs) - 1):
        others = vecs[i + 1:]
        for lam in range(1, space.q):
            pts = f.add_table[vecs[i], f.mul_table[lam, others]]
            keep = in_sorted(ps.ranks, pg.rank_batch(
                space, pg.normalize_batch(space, pts)))
            others = others[keep]
            if not len(others):
                break
        else:
            return True
    return False


def in_sorted(sorted_ranks: np.ndarray, ranks) -> np.ndarray:
    """Membership of each rank in a sorted, nonempty rank array."""
    pos = np.searchsorted(sorted_ranks, ranks)
    pos[pos == sorted_ranks.size] = 0
    return sorted_ranks[pos] == ranks


def planarity_check(ps: PointSet) -> tuple[int, bool]:
    """(span dimension, planar?) with planar meaning span dimension <= 2."""
    if len(ps) == 0:
        raise ValueError("empty point set")
    S = span_in(ps.space, ps.vecs())
    return S.dim, S.dim <= 2


@dataclass
class VerificationReport:
    manifest: dict
    space: str
    set_size: int
    blocking: dict | None = None
    minimality: dict | None = None
    trivial: bool | None = None
    planar: dict | None = None
    spectra: dict | None = None
    timings_ms: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "manifest": self.manifest,
            "space": self.space,
            "sizes": {"set": self.set_size},
            "timings_ms": self.timings_ms,
        }
        for k in ("blocking", "minimality", "trivial", "planar", "spectra"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out


def run_checks(ps: PointSet, manifest: dict, checks,
               spectra: dict | None = None) -> VerificationReport:
    rep = VerificationReport(manifest=manifest, space=repr(ps.space),
                             set_size=len(ps))
    coverage = None
    if "blocking" in checks or "minimal" in checks:
        coverage = blocking_check(ps)
        rep.blocking = {
            "total": int(coverage.space.n_points),
            "uncovered": coverage.uncovered_sample,
            "uncovered_total": coverage.uncovered_total,
            "blocking": coverage.blocking,
        }
        rep.timings_ms["blocking"] = round(coverage.elapsed_ms, 3)
    if "minimal" in checks:
        mres = minimality_check(ps, coverage)
        rep.minimality = {
            "essential": [{"point": p, "witness": w} for p, w in mres.essential],
            "inessential": mres.inessential,
            "minimal": mres.minimal,
        }
        rep.timings_ms["minimality"] = round(mres.elapsed_ms, 3)
    if "trivial" in checks:
        t0 = time.perf_counter()
        rep.trivial = triviality_check(ps)
        rep.timings_ms["trivial"] = round((time.perf_counter() - t0) * 1e3, 3)
    if "planar" in checks:
        t0 = time.perf_counter()
        dim, planar = planarity_check(ps)
        rep.planar = {"span_dim": dim, "planar": planar}
        rep.timings_ms["planar"] = round((time.perf_counter() - t0) * 1e3, 3)
    if spectra is not None:
        rep.spectra = spectra
    return rep
