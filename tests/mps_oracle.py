"""Definition oracles for the family, `mps.f_search_minimal` and `mps.cone`.

`family_enumerate` builds every family member I = <blowup(H), Omega> cap
Gamma' as a subspace, one span and one meet per hyperplane H missing X, and
`family_masks` tests each point against each member with `Subspace.contains`.
`f_search_minimal` tries every index set of affine points of Gamma' with
`itertools.combinations`, size by size, and keeps those that block every
family member while no set with one point removed does.  `cone` takes the
span <vertex, b> of each base point on its own, and `bbar_without_x` tests
each point of Bbar against X with `Subspace.contains`.  All are the direct
definitions, slow and kept out of the program, so that the program's Lemma 2
incidences, pruned search and batched cone can be checked against them.
"""

import itertools

import numpy as np

from blockcone.linalg import matmul
from blockcone.pg import GeometryError, PointSet, meet, span, span_in
from blockcone.verify import triviality_check
from blockcone import pg


def family_enumerate(frame):
    """Yield (hyperplane rank, I) over all hyperplanes of Pi_r missing X,
    in rank order, where I = <blowup(H), Omega> cap Gamma'.  The members are
    listed by incidence with X, one hyperplane at a time."""
    model = frame.model
    sp = model.pi_space
    xvec = model.spread_to_pg_vec(model.x_index)
    for rank in range(sp.n_points):
        a = pg.unrank(sp, rank)
        if matmul(a[None], xvec[:, None], sp.field)[0, 0] == 0:
            continue
        blow = model.hyperplane_blowup(a)
        I = meet(span([blow, frame.omega]), frame.gamma_prime)
        yield int(rank), I


def family_masks(frame, vecs: np.ndarray) -> tuple[list[int], list[int]]:
    """`mps._family_masks` from the members as subspaces: the member ranks,
    and per row of vecs the mask whose bit f is set iff the f-th member
    contains the point."""
    ranks = []
    masks = [0] * len(vecs)
    for f, (rank, I) in enumerate(family_enumerate(frame)):
        ranks.append(rank)
        for i, v in enumerate(vecs):
            if I.contains(v):
                masks[i] |= 1 << f
    return ranks, masks


def minimal_covers(member: np.ndarray, max_k: int) -> list[tuple]:
    """Inclusion-minimal column sets of the boolean (members, points) matrix
    `member` of size <= max_k that meet every row, in combinations order size
    by size."""

    def blocking(idx) -> bool:
        return bool(np.all(member[:, list(idx)].any(axis=1))) if idx else \
            bool(member.shape[0] == 0)

    out = []
    for size in range(0, max_k + 1):
        for idx in itertools.combinations(range(member.shape[1]), size):
            if not blocking(idx):
                continue
            if any(blocking(tuple(j for j in idx if j != i)) for i in idx):
                continue  # not minimal
            out.append(idx)
    return out


def f_search_minimal(frame, max_size: int) -> list[dict]:
    """`mps.f_search_minimal` by exhaustive subset enumeration."""
    gp = frame.gamma_prime
    theta_ranks = frame.theta.point_ranks()
    sigma_part = meet(gp, frame.model.sigma).point_ranks()
    affine = np.setdiff1d(gp.point_ranks(), sigma_part)
    aff_vecs = pg.unrank_batch(gp.space, affine)
    member = np.array([[I.contains(v) for v in aff_vecs]
                       for _, I in family_enumerate(frame)])
    out = []
    for idx in minimal_covers(member, max_size - len(theta_ranks)):
        bbar = PointSet(gp.space,
                        np.concatenate([theta_ranks, affine[list(idx)]]))
        out.append({"bbar": bbar,
                    "trivial": triviality_check(bbar)})
    return out


def cone(vertex, base: PointSet) -> PointSet:
    """`mps.cone` as the union of one span <vertex, b> per base point."""
    if len(base) == 0:
        raise GeometryError("empty cone base")
    space = vertex.space
    if base.space != space:
        raise GeometryError("vertex and base live in different spaces")
    chunks = [vertex.point_ranks()] if vertex.dim >= 0 else []
    for b in base.vecs():
        if vertex.dim >= 0 and vertex.contains(b):
            continue
        line = span([vertex, b]) if vertex.dim >= 0 else span_in(space, [b])
        chunks.append(line.point_ranks())
    return PointSet(space, np.concatenate(chunks))


def bbar_without_x(frame, bbar: PointSet) -> PointSet:
    """The points of Bbar off X."""
    X = frame.model.X
    return PointSet(bbar.space, [r for r, v in zip(bbar.ranks, bbar.vecs())
                                 if not X.contains(v)])
