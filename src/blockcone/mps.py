"""Generalized cone construction of hyperplane blocking sets.

Given the model Pi_r ~ PG(r, q1^n), a spread element X with a distinguished
subspace Omega of dimension s <= n-2, and a complementary pair Gamma inside
Sigma / Gamma' poking out of it, the family F collects the traces
<H_blowup, Omega> cap Gamma' of all hyperplanes H of Pi_r missing X.  A set
Bbar inside Gamma' that meets every member of F and meets Sigma exactly in
Theta = Gamma cap X lifts, via the cone with vertex Omega, to a blocking set
B = K(Omega, Bbar) cup {X} of Pi_r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import pg
from .linalg import kernel_basis
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


def frame_make(model: BCModel, s: int, seed: int = 0) -> MPSFrame:
    """Deterministic frame: Omega spans the first s+1 independent points of X;
    Gamma is cut out of Sigma by greedily chosen least-rank hyperplane forms,
    each stripping one dimension off the remaining Omega part; Gamma' extends
    Gamma by the least-rank affine point.  The seed rotates search starts,
    so consecutive seeds can give the same frame: on (q1, n, r, s) =
    (2, 2, 2, 0) seeds 1 and 2, 3 and 4, ... coincide."""
    if not (0 <= s <= model.n - 2):
        raise GeometryError("need 0 <= s <= n-2")
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
    forms: list[np.ndarray] = []
    part = omega_int  # remaining part of Omega not yet cut away
    n_duals = sint.n_points
    offset = seed % n_duals
    for _ in range(s + 1):
        found = False
        for d in range(n_duals):
            f = pg.unrank(sint, (d + offset) % n_duals)
            if forms:
                stackd = np.vstack(forms + [f])
                if Subspace(sint, stackd).dim != len(forms):
                    continue
            # the form must not vanish on all of the remaining Omega part
            vals = pg.dot(sint, part.mat, np.broadcast_to(f, part.mat.shape))
            if not np.any(vals):
                continue
            forms.append(f)
            found = True
            break
        if not found:
            raise GeometryError("no admissible Gamma (cannot happen)")
        gam_int = Subspace(sint, kernel_basis(np.vstack(forms), sint.field),
                           _canonical=True)
        part = meet(gam_int, omega_int)
    gamma = Subspace(model.sigma_prime,
                     np.hstack([gam_int.mat,
                                np.zeros((gam_int.mat.shape[0], 1), dtype=np.int64)]))
    affine = pg.unrank(model.sigma_prime, 0)  # (0,...,0,1)
    gamma_prime = span([gamma, affine])
    theta = meet(gamma, model.X)
    frame = MPSFrame(model, s, omega, gamma, gamma_prime, theta)
    frame.validate()
    return frame


def pi_hyperplane_ranks_avoiding_x(model: BCModel) -> np.ndarray:
    """Dual ranks of the hyperplanes of Pi_r not through the point of X."""
    sp = model.pi_space
    xvec = model.spread_to_pg_vec(model.x_index)
    through = pg.hyperplanes_through(sp, xvec)
    return np.setdiff1d(np.arange(sp.n_points, dtype=np.int64), through)


def family_enumerate(frame: MPSFrame):
    """Yield (hyperplane rank, I) over all hyperplanes of Pi_r missing X,
    where I = <blowup(H), Omega> cap Gamma'."""
    model = frame.model
    for rank in pi_hyperplane_ranks_avoiding_x(model):
        a = pg.unrank(model.pi_space, int(rank))
        blow = model.hyperplane_blowup(a)
        I = meet(span([blow, frame.omega]), frame.gamma_prime)
        yield int(rank), I


def cone(vertex: Subspace, base: PointSet) -> PointSet:
    """Union of the spans <vertex, b> over base points b, vertex included."""
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


def mps_size_predict(bbar_size: int, q1: int, n: int, s: int) -> int:
    theta_size = (q1 ** (n - s - 1) - 1) // (q1 - 1)
    if bbar_size < theta_size:
        raise GeometryError("Bbar cannot be smaller than Theta")
    return (bbar_size - theta_size) * q1 ** (s + 1) + 1


def mps_build(frame: MPSFrame, bbar: PointSet) -> PointSet:
    """B = K(Omega, Bbar) cup {X}, returned in Pi_r coordinates."""
    model = frame.model
    if bbar.space != model.sigma_prime:
        raise GeometryError("Bbar must live in Sigma'")
    theta_ranks = frame.theta.point_ranks()
    vecs = bbar.vecs()
    in_sigma = vecs[:, -1] == 0
    if not np.array_equal(np.sort(bbar.ranks[in_sigma]), np.sort(theta_ranks)):
        raise GeometryError("Bbar cap Sigma != Theta")
    for v in vecs:
        if not frame.gamma_prime.contains(v):
            raise GeometryError("Bbar is not contained in Gamma'")
    k = cone(frame.omega, bbar)
    kvecs = k.vecs()
    affine = kvecs[kvecs[:, -1] != 0]
    pi_ranks = pg.rank_batch(model.pi_space, model.bc_to_pg_batch(affine))
    x_rank = pg.rank_of(model.pi_space, model.spread_to_pg_vec(model.x_index))
    out = PointSet(model.pi_space, np.concatenate([pi_ranks, [x_rank]]))
    predicted = mps_size_predict(len(bbar), model.q1, model.n, frame.s)
    if len(out) != predicted:
        raise GeometryError(
            f"size mismatch: built {len(out)}, formula predicts {predicted}")
    return out


def bbar_without_x(frame: MPSFrame, bbar: PointSet) -> PointSet:
    keep = [r for r, v in zip(bbar.ranks, bbar.vecs())
            if not frame.model.X.contains(v)]
    return PointSet(bbar.space, np.array(keep, dtype=np.int64))


def f_blocking_check(bbar: PointSet, frame: MPSFrame,
                     lemma2_sample: int = 0) -> dict:
    """Per-family-member intersection counts of Bbar minus X; optionally
    cross-checks |B cap S| = |(Bbar \\ X) cap I| on a sample of hyperplanes."""
    core = bbar_without_x(frame, bbar)
    core_vecs = core.vecs()
    counts = {}
    violations = []
    for rank, I in family_enumerate(frame):
        c = sum(1 for v in core_vecs if I.contains(v))
        counts[rank] = c
        if c == 0:
            violations.append(rank)
    result = {"covered": sum(1 for c in counts.values() if c > 0),
              "family_size": len(counts),
              "violations": violations,
              "counts": counts}
    if lemma2_sample and not violations:
        B = mps_build(frame, bbar)
        bvecs = B.vecs()
        mismatches = []
        ranks = sorted(counts)[:lemma2_sample]
        for rank in ranks:
            a = pg.unrank(frame.model.pi_space, rank)
            n_inc = int(np.sum(pg.dot(frame.model.pi_space, bvecs,
                                      np.broadcast_to(a, bvecs.shape)) == 0))
            if n_inc != counts[rank]:
                mismatches.append((rank, n_inc, counts[rank]))
        result["lemma2_mismatches"] = mismatches
    return result


def side_condition_violations(bbar: PointSet, frame: MPSFrame) -> list[int]:
    """Optional s = n-2 validator: for every line L of Gamma' through the
    single point t = Theta, require L \\ {t} not a subset of Bbar.  Returns
    dual-coefficient ranks of violating lines; informational only."""
    if frame.theta.dim != 0:
        raise GeometryError("side condition applies only when s = n-2")
    t = frame.theta.mat[0]
    space = frame.gamma_prime.space
    bset = set(int(x) for x in bbar.ranks)
    bad = []
    seen = set()
    for i, w in enumerate(frame.gamma_prime.point_vecs()):
        L = span_in(space, [t, w])
        if L.dim != 1 or L in seen:
            continue
        seen.add(L)
        others = [r for r in L.point_ranks()
                  if r != pg.rank_of(space, t)]
        if all(int(r) in bset for r in others):
            bad.append(i)
    return bad


def f_search_minimal(frame: MPSFrame, max_size: int) -> list[dict]:
    """All inclusion-minimal F-blocking sets Bbar = Theta cup A with
    |Bbar| <= max_size, by exhaustive subset enumeration of the affine part
    of Gamma'.  Tiny instances only."""
    gp = frame.gamma_prime
    if gp.n_points() > 40:
        raise GeometryError("Gamma' too large for exhaustive search")
    theta_ranks = frame.theta.point_ranks()
    sigma_part = meet(gp, frame.model.sigma).point_ranks()
    affine = np.setdiff1d(gp.point_ranks(), sigma_part)
    family = [I for _, I in family_enumerate(frame)]
    aff_vecs = pg.unrank_batch(gp.space, affine)
    member = np.array([[I.contains(v) for v in aff_vecs] for I in family])

    def blocking(idx: tuple[int, ...]) -> bool:
        return bool(np.all(member[:, list(idx)].any(axis=1))) if idx else \
            bool(member.shape[0] == 0)

    out = []
    max_aff = max_size - len(theta_ranks)
    for size in range(0, max_aff + 1):
        for idx in itertools.combinations(range(len(affine)), size):
            if not blocking(idx):
                continue
            if any(blocking(tuple(j for j in idx if j != i)) for i in idx):
                continue  # not minimal
            bbar = PointSet(gp.space,
                            np.concatenate([theta_ranks, affine[list(idx)]]))
            out.append({
                "bbar": bbar,
                "trivial": _contains_complementary_subspace(bbar, frame),
            })
    return out


def _contains_complementary_subspace(bbar: PointSet, frame: MPSFrame) -> bool:
    """Triviality per the family definition: Bbar contains a subspace of
    dimension (ambient dim of Gamma') - (family member dim) = n - s - 1."""
    d = frame.model.n - frame.s - 1
    if d == 1:
        return triviality_check(bbar)
    if d == 0:
        return len(bbar) > 0
    raise NotImplementedError("triviality scan implemented for d <= 1 only")
