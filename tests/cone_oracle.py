"""Brute-force oracle for the cone outputs B = K(Omega, Bbar) cup {X} of the
smallest instance (q1=2, n=2, r=2, s=0): PG(2, 4) modelled in PG(4, 2).

A cone with vertex a point Omega of X is, off Sigma, a union of affine lines
of Sigma' through Omega; seen in Pi_r it is that union together with the
point X.  The oracle lists every such union and classifies it by direct
incidence against the lines of Pi_r.  It uses only pg rank/unrank,
`linalg.matmul` and the model's point maps, nothing of `mps`, `verify` or
`example36`, so it can certify what the cone code produces.  The two
single-point maps between Pi_r and Sigma' (`bc_to_pg_vec`, `pg_to_bc`) live
here too: the program maps affine points in batches only.
"""

import itertools

import numpy as np

from blockcone import pg
from blockcone.linalg import matmul


def bc_to_pg_vec(model, vec) -> np.ndarray:
    """Affine Sigma'-point -> canonical point of PG(r, q1^n)."""
    return model.bc_to_pg_batch(np.asarray(vec, dtype=np.int64)[None, :])[0]


def pg_to_bc(model, vec):
    """Point of PG(r, q1^n) -> affine Sigma'-point vector, or ('spread', i)."""
    v = np.asarray(vec, dtype=np.int64)
    if v[-1] == 0:
        return ("spread", pg.rank_of(model.spread.big_space, v[:-1]))
    sup = model.tower.sup
    v = sup.mul_table[sup.inv_table[v[-1]], v]
    blocks = model.tower.coords(v[:-1]).reshape(-1)
    out = np.concatenate([blocks, np.ones(1, dtype=np.int64)])
    return pg.normalize_batch(model.sigma_prime, out[None])[0]


def pi_incidence(model) -> np.ndarray:
    """Boolean (line rank, point rank) incidence matrix of Pi_r."""
    pi = model.pi_space
    vecs = pg.unrank_batch(pi, np.arange(pi.n_points))
    return matmul(vecs, vecs.T, pi.field) == 0


def x_rank(model) -> int:
    return pg.rank_of(model.pi_space, model.spread_to_pg_vec(model.x_index))


def omega_lines(model, omega_vec) -> list[frozenset[int]]:
    """Affine parts of the lines of Sigma' through Omega, as Pi_r ranks."""
    sp, f = model.sigma_prime, model.sigma_prime.field
    omega = np.asarray(omega_vec, dtype=np.int64)
    vecs = pg.unrank_batch(sp, np.arange(sp.n_points))
    lines = set()
    for a in vecs[vecs[:, -1] != 0]:
        pts = f.add_table[a[None, :], f.mul_table[np.arange(f.q)[:, None],
                                                  omega[None, :]]]
        lines.add(frozenset(
            pg.rank_of(model.pi_space, bc_to_pg_vec(model, v)) for v in pts))
    return sorted(lines, key=min)


def omega_cones(model, omega_vec):
    """Every union of affine Omega-lines together with X, as a frozenset of
    Pi_r ranks: all candidate cone outputs with vertex Omega."""
    lines = omega_lines(model, omega_vec)
    xr = x_rank(model)
    for k in range(len(lines) + 1):
        for combo in itertools.combinations(lines, k):
            yield frozenset().union(*combo) | {xr}


def classify(inc: np.ndarray, ranks) -> tuple[bool, bool, bool]:
    """(blocking, minimal blocking, contains a line) for a point set of
    Pi_r, by counting its points on every line."""
    idx = np.fromiter(ranks, dtype=np.int64)
    hits = inc[:, idx].sum(axis=1)
    blocking = bool(np.all(hits >= 1))
    # a point is essential iff some line meets the set in that point only
    tangent = inc[hits == 1][:, idx]
    minimal = blocking and bool(np.all(tangent.any(axis=0)))
    trivial = bool(np.any(hits == inc.sum(axis=1)))
    return blocking, minimal, trivial


def minimal_nontrivial_cones(model, omega_vec) -> set[frozenset[int]]:
    """The Omega-cones that are minimal blocking sets of Pi_r containing no
    line."""
    inc = pi_incidence(model)
    out = set()
    for B in omega_cones(model, omega_vec):
        _, minimal, trivial = classify(inc, B)
        if minimal and not trivial:
            out.add(B)
    return out


def nontrivial_blocking_sets_through_x(model, size: int) -> list[frozenset[int]]:
    """Every blocking set of Pi_r with `size` points, X among them, that
    contains no line."""
    inc = pi_incidence(model)
    xr = x_rank(model)
    others = np.setdiff1d(np.arange(inc.shape[1]), [xr])
    combos = np.array(list(itertools.combinations(others, size - 1)))
    hits = inc[:, combos].sum(axis=-1) + inc[:, [xr]]  # (lines, combos)
    keep = np.all(hits >= 1, axis=0) & np.all(
        hits < inc.sum(axis=1)[:, None], axis=0)
    return [frozenset(c.tolist()) | {xr} for c in combos[keep]]
