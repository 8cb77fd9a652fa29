"""Projective geometry substrate over GF(q): canonical points, subspaces,
span/meet, incidence, and rank/unrank enumeration for PG(m,q).

Points are canonical coordinate vectors (leftmost nonzero coordinate 1) and
are usually carried around as their lexicographic rank; hyperplanes are dual
points with the same normalization and ranking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import linalg
from .gf import FieldSpec, cached_field


class GeometryError(ValueError):
    pass


# Arrays a computation would allocate above this many bytes make it fail fast
# with ResourceError instead.
MEMORY_BUDGET_BYTES = 2 << 30


class ResourceError(ValueError):
    """A computation whose estimated memory exceeds MEMORY_BUDGET_BYTES."""


def check_budget(need: int, what: str) -> None:
    if need > MEMORY_BUDGET_BYTES:
        raise ResourceError(
            f"{what} would allocate about {need / 2**30:.1f} GiB, over the "
            f"{MEMORY_BUDGET_BYTES / 2**30:.0f} GiB budget")


@dataclass(frozen=True)
class ProjSpace:
    m: int  # projective dimension
    field: FieldSpec

    def __post_init__(self):
        if self.n_points >= 1 << 63:  # above the int64 maximum
            raise GeometryError(f"{self} has {self.n_points} points, too many "
                                f"for int64 ranks")

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n_points(self) -> int:
        return (self.q ** (self.m + 1) - 1) // (self.q - 1)

    n_hyperplanes = n_points

    def hyperplanes_per_point(self) -> int:
        return (self.q**self.m - 1) // (self.q - 1)

    @cached_property
    def thresh(self) -> np.ndarray:
        """thresh[j]: the number of canonical vectors whose pivot is > j,
        which is the least rank of pivot j."""
        q, m = self.q, self.m
        return np.array([(q ** (m - j) - 1) // (q - 1) for j in range(m + 1)],
                        dtype=np.int64)

    @cached_property
    def weights(self) -> np.ndarray:
        """weights[i] = q^(m-i): the coordinates of a canonical vector after
        its pivot j are the base-q digits of its rank minus thresh[j]."""
        return self.q ** np.arange(self.m, -1, -1, dtype=np.int64)

    def __repr__(self):
        return f"PG({self.m},{self.q})"


# ---------------------------------------------------------------------------
# canonical points and ranking


def normalize_batch(space: ProjSpace, vecs: np.ndarray) -> np.ndarray:
    v = np.asarray(vecs, dtype=np.int64)
    piv = np.argmax(v != 0, axis=1)
    lead = v[np.arange(len(v)), piv]
    scale = space.field.inv_table[lead]
    return space.field.mul_table[scale[:, None], v].astype(np.int64)


def rank_of(space: ProjSpace, vec) -> int:
    return int(rank_batch(space, np.asarray(vec, dtype=np.int64)[None, :])[0])


def rank_batch(space: ProjSpace, vecs: np.ndarray) -> np.ndarray:
    """Ranks of canonical vectors, lexicographic by coordinate encodings:
    thresh[pivot] plus the coordinates after the pivot read in base q, which
    is v . weights less the pivot's own weight, as v_pivot = 1."""
    v = np.asarray(vecs, dtype=np.int64)
    piv = np.argmax(v != 0, axis=1)
    return (space.thresh - space.weights)[piv] + v @ space.weights


def unrank(space: ProjSpace, i: int) -> np.ndarray:
    return unrank_batch(space, np.array([i]))[0]


def unrank_batch(space: ProjSpace, ranks: np.ndarray) -> np.ndarray:
    r = np.asarray(ranks, dtype=np.int64)
    m, q = space.m, space.q
    if r.size and (r.min() < 0 or r.max() >= space.n_points):
        raise GeometryError("rank out of range")
    # thresh is decreasing in j; pivot = largest j with thresh[j] <= rank.
    # rank - thresh[pivot] < q^(m-pivot), so its base-q digits vanish at and
    # before the pivot
    piv = (m + 1) - np.searchsorted(space.thresh[::-1], r, side="right")
    out = (r - space.thresh[piv])[:, None] // space.weights
    out %= q
    out[np.arange(len(r)), piv] = 1
    return out


def incident_dual_ranks(space: ProjSpace, vec) -> np.ndarray:
    """Ranks of all canonical dual vectors a with a . vec = 0, in increasing
    order, in closed form.

    With i* the last nonzero coordinate of vec and c = -vec[i*]^-1, a dual
    with pivot j > i* is incident for every choice of its free coordinates,
    pivot j = i* never is, and for pivot j < i* (a_j = 1) the coordinate
    a_{i*} is fixed by distributivity:

        a* = c.v_j + sum over free i of (c.v_i).a_i.

    The pivots j > i* are the ranks below thresh[i*].  Per pivot j < i*, a*
    is an outer sum over the free coordinates before i* and the ranks a
    broadcast sum written into one preallocated array (`_pivot_block`),
    lexicographic in the free coordinates.  As a* depends only on the free
    coordinates before it, that is lexicographic order of the whole vector,
    which is rank order.  The blocks are written from the highest pivot
    down, so the whole array is in rank order."""
    m, q, f = space.m, space.q, space.field
    v = np.asarray(vec, dtype=np.int64)
    nz = np.nonzero(v)[0]
    if nz.size == 0:
        raise GeometryError("zero vector")
    istar = int(nz[-1])
    cv = f.mul_table[int(f.neg_table[f.inv_table[v[istar]]]), v]  # c.vec
    out = np.empty(space.hyperplanes_per_point(), dtype=np.int64)
    lo = int(space.thresh[istar])
    out[:lo] = np.arange(lo)
    for j in range(istar - 1, -1, -1):
        size = q ** (m - j - 1)
        _pivot_block(space, cv, istar, j, out[lo:lo + size])
        lo += size
    return out


def _pivot_block(space: ProjSpace, cv: np.ndarray, istar: int, j: int,
                 out: np.ndarray) -> None:
    """Write into `out` the ranks of the incident duals with pivot j < i*,
    lexicographic in the free coordinates i > j, i != i*.

    Split the free coordinates at i*: with kb and ka the lexicographic
    positions of the parts before and after i*, the rank is

        thresh(j) + kb.q^(m-i*+1) + a*.q^(m-i*) + ka,

    and a* depends on the part before i* only.  So a* is an outer sum over
    that part, one add-table gather per coordinate, and the block is a
    column over kb plus a row over ka."""
    m, q = space.m, space.q
    add, mul = space.field.add_table, space.field.mul_table
    na = m - istar  # free coordinates after i*
    n_after = q ** na
    acc = cv[j:j + 1]
    base = int(space.thresh[j])
    for i in range(j + 1, istar):
        acc = np.take(add[acc], mul[cv[i]], axis=1).ravel()
    wb = q ** (na + 1)
    block = out.reshape(acc.size, n_after)
    np.multiply(acc[:, None], q ** na, out=block)
    block += np.arange(base, base + acc.size * wb, wb)[:, None]
    if n_after > 1:
        block += np.arange(n_after)


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Projective subspace as an RREF generator matrix; canonical, hashable.

    An empty matrix is the empty subspace (projective dimension -1)."""

    __slots__ = ("space", "mat", "pivots", "_key")

    def __init__(self, space: ProjSpace, mat: np.ndarray, *, _canonical=False):
        self.space = space
        mat = np.asarray(mat, dtype=np.int64).reshape(-1, space.m + 1)
        if _canonical:
            self.mat = mat
            self.pivots = tuple(int(np.argmax(row != 0)) for row in mat)
        else:
            self.mat, self.pivots = linalg.rref(mat, space.field)
        self.mat.setflags(write=False)
        self._key = (space, self.mat.tobytes())

    @property
    def dim(self) -> int:
        return self.mat.shape[0] - 1

    def __eq__(self, other):
        return isinstance(other, Subspace) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.space})"

    @classmethod
    def empty(cls, space: ProjSpace) -> "Subspace":
        return cls(space, np.zeros((0, space.m + 1), dtype=np.int64))

    @classmethod
    def full(cls, space: ProjSpace) -> "Subspace":
        return cls(space, np.eye(space.m + 1, dtype=np.int64))

    def contains(self, vec) -> bool:
        return not linalg.reduce_in_row_space(
            self.mat, self.pivots, vec, self.space.field)[1].any()

    def contains_sub(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.mat)

    def coords_of(self, vec) -> np.ndarray:
        """Coefficients of vec in the generator rows; raises if vec is
        outside the subspace."""
        coeff, rest = linalg.reduce_in_row_space(self.mat, self.pivots, vec,
                                                 self.space.field)
        if rest.any():
            raise ValueError("vector not in row space")
        return coeff

    def n_points(self) -> int:
        q = self.space.q
        return (q ** (self.dim + 1) - 1) // (q - 1)

    def point_vecs(self) -> np.ndarray:
        """All canonical point vectors of the subspace, in rank order.

        c -> c @ mat over the canonical coefficient vectors c in rank order,
        with no sort: as mat is RREF, c @ mat is c_i on the i-th pivot
        column, and its columns before that pivot depend on c_0..c_(i-1)
        only.  So where two c first differ, their images first differ, by
        the same values.  The map keeps lexicographic order, which is rank
        order on canonical vectors, and maps a canonical c to a canonical
        vector."""
        coeff_space = ProjSpace(self.dim, self.space.field)
        coeffs = unrank_batch(coeff_space, np.arange(coeff_space.n_points))
        return linalg.matmul(coeffs, self.mat, self.space.field)

    def point_ranks(self) -> np.ndarray:
        vecs = self.point_vecs()
        return rank_batch(self.space, vecs)

    def dual_forms(self) -> np.ndarray:
        """RREF basis of the linear forms vanishing on the subspace."""
        return linalg.kernel_basis(self.mat, self.space.field)


def span(items) -> Subspace:
    """Span of a nonempty list of Subspaces and/or point vectors."""
    items = list(items)
    if not items:
        raise GeometryError("span of empty input")
    space = None
    rows = []
    for it in items:
        if isinstance(it, Subspace):
            if space is None:
                space = it.space
            elif it.space != space:
                raise GeometryError("span across different spaces")
            rows.append(it.mat)
        else:
            rows.append(np.atleast_2d(np.asarray(it, dtype=np.int64)))
    if space is None:
        raise GeometryError("span needs at least one Subspace or a space hint")
    stacked = np.concatenate([np.asarray(r).reshape(-1, space.m + 1) for r in rows])
    return Subspace(space, stacked)


def span_in(space: ProjSpace, vecs) -> Subspace:
    return Subspace(space, np.atleast_2d(np.asarray(vecs, dtype=np.int64)))


def meet(A: Subspace, B: Subspace) -> Subspace:
    if A.space != B.space:
        raise GeometryError("meet across different spaces")
    if A.mat.shape[0] == 0 or B.mat.shape[0] == 0:
        return Subspace.empty(A.space)
    M = linalg.meet_row_spaces(A.mat, B.mat, A.space.field)
    return Subspace(A.space, M, _canonical=True)


# ---------------------------------------------------------------------------
# point sets


@dataclass(frozen=True)
class PointSet:
    """Sorted, deduplicated point ranks in a fixed ambient space."""

    space: ProjSpace
    ranks: np.ndarray = dc_field(compare=False)

    def __post_init__(self):
        # sorted and deduplicated without np.unique, whose first call in a
        # process imports numpy.ma (10-30 ms per process)
        r = np.sort(np.asarray(self.ranks, dtype=np.int64), axis=None)
        fresh = np.ones(r.size, dtype=bool)
        np.not_equal(r[1:], r[:-1], out=fresh[1:])
        r = r[fresh]
        if r.size and (r[0] < 0 or r[-1] >= self.space.n_points):
            raise GeometryError("point rank out of range")
        r.setflags(write=False)
        object.__setattr__(self, "ranks", r)

    def __len__(self):
        return int(self.ranks.size)

    def __eq__(self, other):
        return (isinstance(other, PointSet) and self.space == other.space
                and np.array_equal(self.ranks, other.ranks))

    def __hash__(self):
        return hash((self.space, self.ranks.tobytes()))

    def __contains__(self, rank: int):
        i = np.searchsorted(self.ranks, rank)
        return i < self.ranks.size and self.ranks[i] == rank

    @classmethod
    def from_vecs(cls, space: ProjSpace, vecs) -> "PointSet":
        vecs = np.atleast_2d(np.asarray(vecs, dtype=np.int64))
        if vecs.shape[0] == 0:
            return cls(space, np.zeros(0, dtype=np.int64))
        return cls(space, rank_batch(space, normalize_batch(space, vecs)))

    def vecs(self) -> np.ndarray:
        """The canonical vectors of the points in rank order, unranked once
        per set and read-only."""
        return self._vecs

    @cached_property
    def _vecs(self) -> np.ndarray:
        v = unrank_batch(self.space, self.ranks)
        v.setflags(write=False)
        return v

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, np.concatenate([self.ranks, other.ranks]))

    def minus(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, np.setdiff1d(self.ranks, other.ranks,
                                                 assume_unique=True))

    def intersect(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, np.intersect1d(self.ranks, other.ranks,
                                                   assume_unique=True))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_fields(data, where: str, ints=(), int_lists=()) -> None:
    """Raise GeometryError unless `data` is a JSON object holding an integer
    under each key of `ints` and a list of integers under each key of
    `int_lists`."""
    if not isinstance(data, dict):
        raise GeometryError(f"{where} is not a JSON object")
    for key in (*ints, *int_lists):
        if key not in data:
            raise GeometryError(f"{where} has no {key!r}")
    for key in ints:
        if not _is_int(data[key]):
            raise GeometryError(f"{where}: {key!r} is not an integer")
    for key in int_lists:
        if not (isinstance(data[key], list)
                and all(_is_int(x) for x in data[key])):
            raise GeometryError(f"{where}: {key!r} is not a list of integers")


def save_point_set(ps: PointSet, path) -> None:
    """Text format: header `p k m+1`, then one point per line as
    space-separated element encodings."""
    f = ps.space.field
    with open(path, "w") as fh:
        fh.write(f"{f.p} {f.k} {ps.space.m + 1}\n")
        for row in ps.vecs():
            fh.write(" ".join(map(str, row.tolist())) + "\n")


def load_point_set(path) -> PointSet:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise GeometryError(f"bad point-set header in {path}")
        p, k, width = map(int, header)
        space = ProjSpace(width - 1, cached_field(p, k))
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            row = list(map(int, line.split()))
            if len(row) != width:
                raise GeometryError(f"bad point width in {path}")
            if not all(0 <= x < space.q for x in row):
                raise GeometryError(f"{path}, line {lineno}: entry outside "
                                    f"GF({space.q})")
            if not any(row):
                raise GeometryError(f"{path}, line {lineno}: zero vector has "
                                    f"no projective class")
            rows.append(row)
    if not rows:
        return PointSet(space, np.zeros(0, dtype=np.int64))
    raw = np.array(rows, dtype=np.int64)
    canon = normalize_batch(space, raw)
    if not np.array_equal(canon, raw):
        warnings.warn(f"{path}: points were not canonical; re-normalized")
    ranks = rank_batch(space, canon)
    if np.any(np.diff(ranks) <= 0):
        warnings.warn(f"{path}: points were not sorted/deduplicated; fixed")
    return PointSet(space, ranks)
