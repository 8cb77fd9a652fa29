"""Generalized cone construction of hyperplane blocking sets.

Given the model Pi_r ~ PG(r, q1^n), a spread element X with a distinguished
subspace Omega of dimension s <= n-2, and a complementary pair Gamma inside
Sigma / Gamma' poking out of it, the family F collects the traces
<H_blowup, Omega> cap Gamma' of all hyperplanes H of Pi_r missing X.  A set
Bbar inside Gamma' that meets every member of F and meets Sigma exactly in
Theta = Gamma cap X lifts, via the cone with vertex Omega, to a blocking set
B = K(Omega, Bbar) cup {X} of Pi_r.

Family membership is Lemma 2: for H missing X, an affine point b of Gamma'
lies in <blowup(H), Omega> cap Gamma' iff one of its cone points b + omega
(omega over Omega's row space) maps into H.  `cone_image_vecs` is that map:
`mps_build` ranks its image of Bbar, and `_family_table` is its incidence
table with the member duals, which `f_blocking_check` counts and
`_family_masks` packs into bitmasks for the search.  The members as
subspaces are only the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import pg
from .linalg import kernel_basis, matmul
from .model import BCModel
from .pg import GeometryError, PointSet, ProjSpace, Subspace, meet, span, span_in
from .verify import triviality_check


@dataclass(frozen=True)
class MPSFrame:
    model: BCModel
    s: int
    omega: Subspace       # s-dim subspace of X
    gamma: Subspace       # (rn-s-2)-dim subspace of Sigma, disjoint from Omega
    gamma_prime: Subspace  # (rn-s-1)-dim extension with gamma' cap Sigma = gamma
    theta: Subspace       # gamma cap X, dimension n-s-2

    def validate(self):
        m, s = self.model, self.s
        rn = m.r * m.n
        if not (0 <= s <= m.n - 2):
            raise GeometryError("need 0 <= s <= n-2")
        if self.omega.dim != s or not m.X.contains_sub(self.omega):
            raise GeometryError("Omega must be an s-subspace of X")
        if self.gamma.dim != rn - s - 2 or not m.sigma.contains_sub(self.gamma):
            raise GeometryError("Gamma must be an (rn-s-2)-subspace of Sigma")
        if meet(self.gamma, self.omega).dim != -1:
            raise GeometryError("Gamma must avoid Omega")
        if self.gamma_prime.dim != rn - s - 1:
            raise GeometryError("Gamma' has the wrong dimension")
        if meet(self.gamma_prime, m.sigma) != self.gamma:
            raise GeometryError("Gamma' cap Sigma != Gamma")
        if meet(self.gamma, m.X) != self.theta or self.theta.dim != m.n - s - 2:
            raise GeometryError("Theta must be Gamma cap X of dimension n-s-2")

    # constants of `mps_build` and the family scans, computed once per frame

    @cached_property
    def theta_ranks(self) -> np.ndarray:
        return self.theta.point_ranks()

    @cached_property
    def gamma_prime_forms(self) -> np.ndarray:
        return self.gamma_prime.dual_forms()

    @cached_property
    def omega_rows(self) -> np.ndarray:
        return _row_space(self.omega)

    @cached_property
    def x_ranks(self) -> np.ndarray:
        """X's dual ranks (the hyperplanes of Pi_r through X, which are the
        ranks outside the family), sorted and read-only."""
        model = self.model
        ranks = pg.incident_dual_ranks(
            model.pi_space, model.spread_to_pg_vec(model.x_index))
        ranks.setflags(write=False)
        return ranks

    @cached_property
    def family(self) -> tuple[np.ndarray, np.ndarray]:
        """Member ranks (hyperplanes of Pi_r missing X), which are the ranks
        missing from X's, and their duals."""
        sp = self.model.pi_space
        members = sp.n_points - sp.hyperplanes_per_point()
        # int64 indices and ranks of the members, then their int64 duals:
        # about 18.6 GB at q = 3
        pg.check_budget(8 * (sp.m + 3) * members,
                        f"family of the hyperplanes of {sp} missing X")
        ranks = member_ranks(self.x_ranks, np.arange(members))
        return ranks, pg.unrank_batch(sp, ranks)

    @cached_property
    def x_rank(self) -> int:
        model = self.model
        return pg.rank_of(model.pi_space, model.spread_to_pg_vec(model.x_index))


def frame_make(model: BCModel, s: int, seed: int = 0,
               through: Subspace | None = None) -> MPSFrame:
    """Deterministic frame: Omega spans the first s+1 independent points of X;
    Gamma is cut out of Sigma by greedily chosen least-rank hyperplane forms
    vanishing on `through` (a subspace of Sigma, empty by default), each
    stripping one dimension off the remaining Omega part; Gamma' extends
    Gamma by the least-rank affine point.  The seed rotates search starts,
    so consecutive seeds can give the same frame: on (q1, n, r, s) =
    (2, 2, 2, 0) seeds 1 and 2, 3 and 4, ... coincide.

    The forms vanishing on `through` are c @ K for K its RREF kernel basis
    and c over the canonical coefficient vectors, walked lazily in rank
    order: the map keeps rank order (`Subspace.point_vecs`)."""
    if not (0 <= s <= model.n - 2):
        raise GeometryError("need 0 <= s <= n-2")
    if through is None:
        through = Subspace.empty(model.sigma_prime)
    rn = model.r * model.n
    xp = model.X.point_vecs()
    rows = [xp[0]]
    for v in xp[1:]:
        if len(rows) == s + 1:
            break
        cand = span_in(model.sigma_prime, rows + [v])
        if cand.dim == len(rows):
            rows.append(v)
    omega = span_in(model.sigma_prime, rows)
    assert omega.dim == s

    sint = ProjSpace(rn - 1, model.tower.sub)
    omega_int = Subspace(sint, omega.mat[:, :rn])
    kernel = kernel_basis(through.mat[:, :rn], sint.field)
    coeff = ProjSpace(kernel.shape[0] - 1, sint.field)
    forms: list[np.ndarray] = []
    part = omega_int  # remaining part of Omega not yet cut away
    n_duals = coeff.n_points
    offset = seed % n_duals
    for _ in range(s + 1):
        for d in range(n_duals):
            c = pg.unrank(coeff, (d + offset) % n_duals)
            f = matmul(c[None, :], kernel, sint.field)[0]
            # the form must not vanish on all of the remaining Omega part;
            # every chosen form does, so such a form is independent of them
            if matmul(part.mat, f[:, None], sint.field).any():
                forms.append(f)
                break
        else:
            raise GeometryError("no admissible Gamma")
        gam_int = Subspace(sint, kernel_basis(np.vstack(forms), sint.field),
                           _canonical=True)
        part = meet(gam_int, omega_int)
    gamma = Subspace(model.sigma_prime, model._lift(gam_int.mat))
    affine = pg.unrank(model.sigma_prime, 0)  # (0,...,0,1)
    gamma_prime = span([gamma, affine])
    theta = meet(gamma, model.X)
    frame = MPSFrame(model, s, omega, gamma, gamma_prime, theta)
    frame.validate()
    return frame


def member_ranks(x_ranks: np.ndarray, k) -> np.ndarray:
    """Dual ranks of the k-th family members (0-based, in rank order), i.e.
    of the k-th ranks missing from the sorted x_ranks: x_ranks[j] - j ranks
    of the family lie below x_ranks[j].  Any sorted list of excluded ranks
    may stand for x_ranks."""
    k = np.asarray(k, dtype=np.int64)
    return k + np.searchsorted(x_ranks - np.arange(x_ranks.size), k,
                               side="right")


def _row_space(vertex: Subspace) -> np.ndarray:
    """All q^(s+1) vectors of the vertex's row space, zero included."""
    space = vertex.space
    k = vertex.mat.shape[0]
    grid = np.indices((space.q,) * k).reshape(k, space.q ** k).T
    return matmul(grid, vertex.mat, space.field)


def cone(vertex: Subspace, base: PointSet) -> PointSet:
    """Union of the spans <vertex, b> over base points b, vertex included.

    One exact batch: for omega over the q^(s+1) vectors of the vertex's row
    space, <vertex, b> minus the vertex is the classes of b + omega if b is
    off the vertex, and b + omega is zero or in the vertex if b is in it."""
    space = vertex.space
    if len(base) == 0:
        raise GeometryError("empty cone base")
    if base.space != space:
        raise GeometryError("vertex and base live in different spaces")
    f = space.field
    pts = f.add_table[base.vecs()[:, None], _row_space(vertex)]
    pts = pts.reshape(-1, space.m + 1)
    pts = pts[pts.any(axis=1)]
    ranks = pg.rank_batch(space, pg.normalize_batch(space, pts))
    return PointSet(space, np.concatenate([vertex.point_ranks(), ranks]))


def cone_image_vecs(model: BCModel, omega_rows: np.ndarray,
                    aff: np.ndarray) -> np.ndarray:
    """The Pi_r-points of the cone over a vertex Omega inside Sigma on the
    affine Sigma'-points u of aff: u + omega for omega over the rows of
    omega_rows (Omega's row space, zero included), len(omega_rows)
    consecutive rows per u.  <Omega, u> minus Omega is exactly these
    classes, all affine."""
    f = model.tower.sub
    pts = f.add_table[aff[:, None, :], omega_rows[None, :, :]]
    return model.bc_to_pg_batch(pts.reshape(-1, aff.shape[1]))


def mps_size_predict(bbar_size: int, q1: int, n: int, s: int) -> int:
    theta_size = (q1 ** (n - s - 1) - 1) // (q1 - 1)
    if bbar_size < theta_size:
        raise GeometryError("Bbar cannot be smaller than Theta")
    return (bbar_size - theta_size) * q1 ** (s + 1) + 1


def _affine_part(frame: MPSFrame, bbar: PointSet) -> np.ndarray:
    """The affine points of Bbar, after checking what Lemma 2 and the cone
    need of it: Bbar lives in Sigma', Bbar cap Sigma = Theta, and Bbar is
    contained in Gamma'."""
    if bbar.space != frame.model.sigma_prime:
        raise GeometryError("Bbar must live in Sigma'")
    vecs = bbar.vecs()
    in_sigma = vecs[:, -1] == 0
    if not np.array_equal(bbar.ranks[in_sigma], frame.theta_ranks):
        raise GeometryError("Bbar cap Sigma != Theta")
    if matmul(vecs, frame.gamma_prime_forms.T, bbar.space.field).any():
        raise GeometryError("Bbar is not contained in Gamma'")
    return vecs[~in_sigma]


def mps_build(frame: MPSFrame, bbar: PointSet) -> PointSet:
    """B = K(Omega, Bbar) cup {X}, returned in Pi_r coordinates: X, and the
    Pi_r-image of the cone over the affine points of Bbar (the cone over
    Theta stays inside X)."""
    model = frame.model
    pts = cone_image_vecs(model, frame.omega_rows, _affine_part(frame, bbar))
    out = PointSet(model.pi_space,
                   np.append(pg.rank_batch(model.pi_space, pts), frame.x_rank))
    predicted = mps_size_predict(len(bbar), model.q1, model.n, frame.s)
    if len(out) != predicted:
        raise GeometryError(
            f"size mismatch: built {len(out)}, formula predicts {predicted}")
    return out


def _family_table(frame: MPSFrame,
                  aff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The family's member ranks, and the (points, members) boolean table of
    the affine points of Gamma' (rows of aff) on the members: by Lemma 2, a
    point lies on the f-th member iff one of its cone images lies on the
    f-th hyperplane."""
    model = frame.model
    ranks, duals = frame.family
    pts = cone_image_vecs(model, frame.omega_rows, aff)
    on = matmul(pts, duals.T, model.pi_space.field) == 0
    return ranks, on.reshape(len(aff), len(frame.omega_rows),
                             len(ranks)).any(axis=1)


def _family_masks(frame: MPSFrame, aff: np.ndarray) -> tuple[list[int], list[int]]:
    """The family's member ranks, and per row of `_family_table` a Python-int
    mask (no 64-bit cap) whose bit f is set iff the point is on the f-th
    member."""
    ranks, on = _family_table(frame, aff)
    bits = np.packbits(on, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in bits]
    return ranks.tolist(), masks


def f_blocking_check(bbar: PointSet, frame: MPSFrame) -> dict:
    """Per-family-member intersection counts of Bbar minus X, which is the
    affine part of Bbar."""
    ranks, on = _family_table(frame, _affine_part(frame, bbar))
    counts = dict(zip(ranks.tolist(), on.sum(axis=0).tolist()))
    violations = [rank for rank, c in counts.items() if c == 0]
    return {"covered": len(counts) - len(violations),
            "family_size": len(counts),
            "violations": violations,
            "counts": counts}


def f_search_minimal(frame: MPSFrame, max_size: int) -> list[dict]:
    """All inclusion-minimal F-blocking sets Bbar = Theta cup A with
    |Bbar| <= max_size, A a set of affine points of Gamma', by exhaustive
    search over their family bitmasks.  Ordered by size, then by A's indices
    into the sorted affine ranks (combinations order).  Tiny instances only."""
    gp = frame.gamma_prime
    if gp.n_points() > 40:
        raise GeometryError("Gamma' too large for exhaustive search")
    theta_ranks = frame.theta_ranks
    affine = np.setdiff1d(gp.point_ranks(), frame.gamma.point_ranks(),
                          assume_unique=True)  # Gamma' cap Sigma = Gamma
    members, masks = _family_masks(frame, pg.unrank_batch(gp.space, affine))
    covers = _minimal_covers(masks, (1 << len(members)) - 1,
                             max_size - len(theta_ranks))
    bbars = [PointSet(gp.space, np.concatenate([theta_ranks, affine[list(c)]]))
             for c in covers]
    # trivial means containing a subspace of dimension d = n - s - 1, and
    # d = 1 here: d >= 2 forces Gamma' = PG(rn - s - 1, q1) with rn - s >= 6,
    # at least 63 points, which is refused above
    return [{"bbar": b, "trivial": triviality_check(b)} for b in bbars]


def _minimal_covers(masks: list[int], full: int, max_k: int) -> list[tuple]:
    """Every inclusion-minimal index set of size <= max_k whose masks OR to
    `full`, sorted by (size, indices).  Depth first over increasing index
    sets with the running OR; a branch stops once the OR is full (a superset
    of a cover is not minimal), once even the OR of every remaining mask
    cannot fill it, or at max_k.  A cover is minimal iff each of its points
    has a private member, met by no other point of the cover."""
    rest = masks + [0]  # rest[i]: OR of masks[i:]
    for i in range(len(masks) - 1, -1, -1):
        rest[i] |= rest[i + 1]
    out = []

    def walk(start: int, acc: int, twice: int, chosen: list[int]) -> None:
        # acc, twice: the members met by >= 1 and by >= 2 chosen points
        if acc == full:
            if all(masks[i] & ~twice for i in chosen):
                out.append(tuple(chosen))
            return
        if len(chosen) == max_k:
            return
        for i in range(start, len(masks)):
            if acc | rest[i] != full:
                break  # rest shrinks as i grows
            chosen.append(i)
            walk(i + 1, acc | masks[i], twice | acc & masks[i], chosen)
            chosen.pop()

    if max_k >= 0:
        walk(0, 0, 0, [])
    return sorted(out, key=lambda c: (len(c), c))
