"""Exhaustive certification of blocking / minimality / triviality / planarity.

Blocking and minimality are incidence counts over all hyperplanes, and both
come from one walk of one kernel, `_Tiles` (the example's theorems read B's
one count: `example36.spectrum_scan`, `example36.tangency_scan`).  The walk
goes over the hyperplane ranks of PG(m, q) in increasing order, tile by
tile, and meets all points with a tile at once:

- the low tile is the q + 1 ranks of pivots m - 1 and m;
- every other tile is the q^2 contiguous ranks of one pivot j <= m - 2 and
  one prefix (a_{j+1}, ..., a_{m-2}): the duals
  (0, ..., 0, 1, a_{j+1}, ..., a_{m-2}, a_{m-1}, a_m), in cell
  a_{m-1}.q + a_m.

A point v meets such a dual iff c + a_{m-1}.v_{m-1} + a_m.v_m = 0, with
c = v_j + sum of prefix_i.v_i.  Scaled by -1/v_s, s the last nonzero
coordinate of v, that reads d + a_{m-1}.g_{m-1} + a_m.g_m = 0, with g = -v/v_s
and d = g_j + sum of prefix_i.g_i.  So a point meets a tile

- if v_m != 0 (g_m = -1): in one cell per a_{m-1}, a_m = d + a_{m-1}.g_{m-1};
- if v_m = 0 != v_{m-1}: in the whole row a_{m-1} = d;
- if v_{m-1} = v_m = 0: in the whole tile when d = 0, and nowhere otherwise.

A tile's counts are one add-table gather and one `np.bincount` over the cells
of all points.  A point's least tangent (the least hyperplane through it of
count 1) is found in the same walk, by a second bincount of the same cells
weighted by i + 1 for point i: on a count-1 cell the sum is its one point's
weight, exactly, the sums being integers far below 2^53.  The batches come
complete and in rank order, so a point's first count-1 cell is its least
tangent.  `blocking_check` keeps the counts, saturated at 255, and the
tangents on its `CoverageResult`, and `minimality_check` only reads the
tangents.  Saturation is safe: blocking needs `>= 1`, and the tangents are
found on the exact counts.

`run_checks` is the one builder of a verify report and of its verdict.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from . import pg
from .linalg import matmul
from .pg import PointSet, ProjSpace, span_in

_SAT = 255
_UNCOVERED_SAMPLE = 32
_SCAN_CHUNK = 1 << 20
# cells gathered per batch of tiles; one tile's q^2 cells against up to four
# times as many gathered cells are always allowed.  Also the pairs per block
# of `triviality_check`.
_BATCH = 1 << 16
_HEARTBEAT_S = 5.0


@dataclass
class CoverageResult:
    space: ProjSpace
    counts: np.ndarray  # uint8, one cell per hyperplane rank, saturating
    uncovered_total: int
    uncovered_sample: list[int]
    checksum: int
    elapsed_ms: float
    tangents: np.ndarray  # per point in rank order, its least tangent or -1

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


class _Tiles:
    """The incidences of a list of points with the hyperplanes of their
    space, tile by tile as the module docstring describes."""

    def __init__(self, space: ProjSpace, vecs):
        f, m, Q = space.field, space.m, space.q
        self.space = space
        v = np.asarray(vecs, dtype=np.int64).reshape(-1, m + 1)
        last = m - np.argmax(v[:, ::-1] != 0, axis=1)
        scale = f.neg_table[f.inv_table[v[np.arange(len(v)), last]]]
        self.g = f.mul_table[scale[:, None], v]
        kind = np.minimum(m - last, 2)
        self.diag, self.row, self.whole = (np.flatnonzero(kind == k)
                                           for k in range(3))
        # the other points meet the low tile in one cell: rank 1 + g_{m-1}
        # (pivot m - 1) if v_m != 0, else rank 0 (pivot m)
        self.single = np.flatnonzero(kind < 2)
        self.low = np.where(kind == 0, 1 + self.g[:, m - 1], 0)[self.single]
        # per a_{m-1} = a and diagonal point, the gather index a.g_{m-1};
        # cells are laid out (tile, a, point), so that a bincount writes one
        # row of a tile at a time.  Cells are int64: the gather then runs in
        # place and the bincount casts nothing.
        self.step = f.mul_table[np.arange(Q)[:, None], self.g[self.diag, m - 1]]
        self.add = f.add_table.ravel().astype(np.int64)
        cap = max(_BATCH, 4 * Q * Q)
        self.chunk = max(1, cap // Q)  # diagonal points per gather
        self.tiles = max(1, cap // (Q * max(min(len(v), self.chunk), Q)))

    def _batches(self):
        """(first rank, pivot j, first tile, tiles) per batch of the tiles
        of the pivots j <= m - 2, in rank order, with a heartbeat on stderr
        every few seconds that names the number of points counted."""
        m, Q = self.space.m, self.space.q
        total = (Q ** (m - 1) - 1) // (Q - 1)
        start = beat = time.perf_counter()
        done = 0
        for j in range(m - 2, -1, -1):
            n = Q ** (m - 2 - j)
            for t0 in range(0, n, self.tiles):
                k = min(self.tiles, n - t0)
                yield int(self.space.thresh[j]) + t0 * Q * Q, j, t0, k
                done += k
                now = time.perf_counter()
                if now - beat >= _HEARTBEAT_S:
                    beat = now
                    rate = done / (now - start)
                    sys.stderr.write(
                        f"counting {len(self.g)} points over {self.space}: "
                        f"{done}/{total} "
                        f"tiles, {rate * Q * Q:.3g} cells/s, "
                        f"ETA {(total - done) / rate:.0f} s\n")

    def _offsets(self, idx: np.ndarray, j: int, t0: int, k: int) -> np.ndarray:
        """(tiles, points) d = g_j + sum of prefix_i.g_i, for the tiles
        t0 .. t0 + k - 1 of pivot j and the points idx."""
        f, m, Q = self.space.field, self.space.m, self.space.q
        g = self.g[idx]
        d = np.broadcast_to(g[:, j], (k, len(idx)))
        t = np.arange(t0, t0 + k)
        for i in range(j + 1, m - 1):
            prefix = t // Q ** (m - 2 - i) % Q
            d = f.add_table[d, f.mul_table[prefix[:, None], g[:, i]]]
        return d

    def _parts(self, j: int, t0: int, k: int):
        """(index array, points, cells per index) of the batch of the k
        tiles from t0 of pivot j, the last axis of each index array running
        over its points: the cells of the diagonal points, chunk by chunk
        (in row a of a tile, a_m = d + a.g_{m-1}); the rows a_{m-1} = d of
        the row points; the tiles with d = 0 of the whole points (k for the
        other tiles)."""
        Q = self.space.q
        for a in range(0, max(self.diag.size, 1), self.chunk):
            idx = self.diag[a:a + self.chunk]
            d = self._offsets(idx, j, t0, k)
            cells = np.add((d * Q)[:, None, :], self.step[:, a:a + self.chunk],
                           dtype=np.int64)
            # in place: each index is read before its own slot is written,
            # and every index is in range by construction
            np.take(self.add, cells, out=cells, mode="clip")
            cells += (np.arange(k)[:, None, None] * (Q * Q)
                      + np.arange(Q)[:, None] * Q)
            yield cells, idx, 1
        if self.row.size:
            d = self._offsets(self.row, j, t0, k)
            yield np.arange(k)[:, None] * Q + d, self.row, Q
        if self.whole.size:
            d = self._offsets(self.whole, j, t0, k)
            yield np.where(d == 0, np.arange(k)[:, None], k), self.whole, Q * Q

    def _sum(self, lo: int, n: int, parts) -> np.ndarray:
        """The int64 counts over the n cells from rank lo, summed over
        `parts` as `_parts` gives them (the first has one cell per index);
        while a point has no tangent, also the weighted sums that name the
        tangents, as `counts` describes."""
        weigh = (self.best < 0).any()
        out = None
        for ix, idx, per in parts:
            bins = n // per
            tally = [np.bincount(ix.ravel(), minlength=bins)[:bins]]
            if weigh:
                w = np.broadcast_to(idx + 1.0, ix.shape).ravel()
                # float64 also when ix is empty, where bincount gives int64
                tally.append(np.bincount(ix.ravel(), w, minlength=bins)[:bins]
                             .astype(np.float64, copy=False))
            if out is None:
                out = tally
                continue
            for o, t in zip(out, tally):
                o.reshape(-1, per)[:] += t[:, None]
        cnt = out[0]
        if weigh:
            one = np.flatnonzero(cnt == 1)
            pts, first = np.unique((out[1][one] - 1).astype(np.int64),
                                   return_index=True)
            new = self.best[pts] < 0
            self.best[pts[new]] = lo + one[first[new]]
        return cnt

    def counts(self):
        """(first rank, int64 counts) per tile batch, the low tile first,
        each from `_sum`.  Before a batch is yielded, `best` takes each
        point's least tangent in it, if the point has none yet: per point,
        the least hyperplane rank through it of count 1, or -1 while none
        is found.  While a point has none, a second bincount of the same
        cells, weighted by i + 1 for point i, names the one point on each
        count-1 cell: the sum there is that point's weight, exact in float64
        (each sum is an integer below |points|^2, far below 2^53).  A
        batch's cells are in rank order, so the first count-1 cell naming a
        point is its least tangent."""
        Q = self.space.q
        self.best = np.full(len(self.g), -1, dtype=np.int64)
        # whole points lie on every hyperplane of the low tile
        low = [(self.low, self.single, 1)]
        if self.whole.size:
            low.append((np.zeros(self.whole.size, dtype=np.int64),
                        self.whole, Q + 1))
        yield 0, self._sum(0, Q + 1, low)
        for lo, j, t0, k in self._batches():
            yield lo, self._sum(lo, k * Q * Q, self._parts(j, t0, k))


def blocking_check(ps: PointSet) -> CoverageResult:
    """Coverage counter per hyperplane rank; blocking iff every counter >= 1.

    The counts of each tile batch are saturated at 255 and written into one
    uint8 counter, which is checked against the memory budget before it is
    allocated.  The same walk counts the uncovered hyperplanes, samples the
    first 32 of them, and finds each point's least tangent."""
    t0 = time.perf_counter()
    space = ps.space
    pg.check_budget(space.n_points, f"a hyperplane counter over {space}")
    counts = np.zeros(space.n_points, dtype=np.uint8)
    tiles = _Tiles(space, ps.vecs())
    uncovered_total, sample = 0, []
    for lo, cnt in tiles.counts():
        out = counts[lo:lo + cnt.size]
        np.minimum(cnt, _SAT, out=out, casting="unsafe")
        zeros = out.size - int(np.count_nonzero(out))
        if zeros and len(sample) < _UNCOVERED_SAMPLE:
            hits = np.flatnonzero(out == 0)[:_UNCOVERED_SAMPLE - len(sample)]
            sample.extend((lo + hits).tolist())
        uncovered_total += zeros
    return CoverageResult(
        space=space,
        counts=counts,
        uncovered_total=uncovered_total,
        uncovered_sample=sample,
        checksum=hash(ps),
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
        tangents=tiles.best,
    )


def minimality_check(ps: PointSet, coverage: CoverageResult) -> MinimalityResult:
    """A point is essential iff some hyperplane through it has count exactly
    1; the least such hyperplane is its tangent witness, which
    `blocking_check`'s walk found."""
    if coverage.checksum != hash(ps):
        raise ValueError("coverage array does not belong to this point set")
    t0 = time.perf_counter()
    best = coverage.tangents
    essential = [(int(r), int(w)) for r, w in zip(ps.ranks, best) if w >= 0]
    inessential = [int(r) for r, w in zip(ps.ranks, best) if w < 0]
    return MinimalityResult(essential, inessential,
                            (time.perf_counter() - t0) * 1e3)


def naive_coverage(ps: PointSet) -> np.ndarray:
    """Independent oracle: for each hyperplane, the number of set points on
    it, by `linalg.matmul` of all the duals with a chunk of points at a time.
    Only for spaces small enough to enumerate densely."""
    space = ps.space
    if space.n_points > 10**4:
        raise ValueError("naive oracle restricted to <= 10^4 hyperplanes")
    duals = pg.unrank_batch(space, np.arange(space.n_points))
    vecs = ps.vecs()
    counts = np.zeros(space.n_points, dtype=np.int64)
    step = max(1, _SCAN_CHUNK // space.n_points)
    for lo in range(0, len(vecs), step):
        counts += (matmul(duals, vecs[lo:lo + step].T, space.field)
                   == 0).sum(1)
    return counts


def triviality_check(ps: PointSet) -> bool:
    """True iff the set contains a full line.  Any contained line is spanned
    by two of its points v_i, v_j, and its other points are v_i + l.v_j for
    the q - 1 nonzero l, so the pair scan is exact.  The pairs (i, j > i) are
    taken in order, in blocks of at most `_BATCH`; a block is tested one l at
    a time, keeping only the pairs whose points so far all lie in the set,
    and the scan stops at the first block with a surviving pair."""
    space = ps.space
    n = len(ps)
    if n < space.q + 1:
        return False
    f = space.field
    vecs = ps.vecs()
    # pair (i, j) has index first[i] + j - i - 1 in the order of all pairs
    rows = np.arange(n - 1)
    first = rows * (n - 1) - rows * (rows - 1) // 2
    pairs = n * (n - 1) // 2
    for lo in range(0, pairs, _BATCH):
        k = np.arange(lo, min(lo + _BATCH, pairs))
        i = np.searchsorted(first, k, side="right") - 1
        j = k - first[i] + i + 1
        for lam in range(1, space.q):
            pts = f.add_table[vecs[i], f.mul_table[lam, vecs[j]]]
            keep = in_sorted(ps.ranks, pg.rank_batch(
                space, pg.normalize_batch(space, pts)))
            i, j = i[keep], j[keep]
            if not i.size:
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


def run_checks(ps: PointSet, manifest: dict, checks,
               coverage: CoverageResult | None = None) -> tuple[dict, bool]:
    """The report of the named checks on ps, and its verdict: blocking,
    minimal, not trivial and, in a space of dimension > 2, not planar, as
    far as those checks were asked for.  `coverage` is ps's count, if taken."""
    timings: dict = {}
    out = {"manifest": manifest, "space": repr(ps.space),
           "sizes": {"set": len(ps)}, "timings_ms": timings}
    ok = True
    if "blocking" in checks or "minimal" in checks:
        coverage = coverage or blocking_check(ps)
        out["blocking"] = {
            "total": int(coverage.space.n_points),
            "uncovered": coverage.uncovered_sample,
            "uncovered_total": coverage.uncovered_total,
            "blocking": coverage.blocking,
        }
        ok &= "blocking" not in checks or coverage.blocking
    if coverage:
        timings["blocking"] = round(coverage.elapsed_ms, 3)
    if "minimal" in checks:
        mres = minimality_check(ps, coverage)
        out["minimality"] = {
            "essential": [{"point": p, "witness": w} for p, w in mres.essential],
            "inessential": mres.inessential,
            "minimal": mres.minimal,
        }
        timings["minimality"] = round(mres.elapsed_ms, 3)
        ok &= mres.minimal
    if "trivial" in checks:
        t0 = time.perf_counter()
        out["trivial"] = triviality_check(ps)
        timings["trivial"] = round((time.perf_counter() - t0) * 1e3, 3)
        ok &= not out["trivial"]
    if "planar" in checks:
        t0 = time.perf_counter()
        dim, planar = planarity_check(ps)
        out["planar"] = {"span_dim": dim, "planar": planar}
        timings["planar"] = round((time.perf_counter() - t0) * 1e3, 3)
        ok &= not planar or ps.space.m <= 2
    return out, ok
