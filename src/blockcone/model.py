"""Field-reduction desarguesian spreads and the Barlotti-Cofman model.

The big space PG(r, q1^n) is represented inside Sigma' = PG(rn, q1): its
affine points correspond to the points of Sigma' off the fixed hyperplane
Sigma = {last coordinate 0}, its infinite points to the elements of the
desarguesian (n-1)-spread of Sigma obtained by field reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, pg
from .gf import FieldTower, cached_tower
from .pg import GeometryError, ProjSpace, Subspace


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e and e >= 1; anything else is a GeometryError."""
    if q >= 2:
        # the least divisor above 1 is prime
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        e, m = 0, q
        while m % p == 0:
            m //= p
            e += 1
        if m == 1:
            return p, e
    raise GeometryError(f"{q} is not a prime power")


def make_model(q1: int, n: int, r: int) -> "BCModel":
    """Build the model for PG(r, q1^n) from the small-field order q1."""
    p, t = prime_power(q1)
    return BCModel(cached_tower(p, t, n), r)


@dataclass(frozen=True)
class Spread:
    """Desarguesian (n-1)-spread of Sigma = PG(rn-1, q1), indexed by the rank
    of the corresponding point of PG(r-1, q1^n).  Elements are generated on
    demand; the index of the element through a Sigma-point is computed by
    reconstituting its coordinate blocks, so no global lookup table is kept."""

    tower: FieldTower
    r: int

    @property
    def n(self) -> int:
        return self.tower.n

    @property
    def sigma_space(self) -> ProjSpace:
        return ProjSpace(self.r * self.n - 1, self.tower.sub)

    @property
    def big_space(self) -> ProjSpace:
        return ProjSpace(self.r - 1, self.tower.sup)

    def element_generators(self, index: int) -> np.ndarray:
        """(n, rn) basis of one element: the Sigma-coordinates of b_k.x for
        the tower basis b_0..b_{n-1} and x the big point of the index.  The
        rows are independent because y -> y.x is a GF(q1)-linear bijection."""
        x = pg.unrank(self.big_space, index)
        basis = np.array(self.tower.basis, dtype=np.int64)
        scaled = self.tower.sup.mul_table[basis[:, None], x[None, :]]
        return self.tower.coords(scaled).reshape(self.n, self.r * self.n)

    def elements_of_vecs(self, vecs) -> np.ndarray:
        """Spread element indices of nonzero Sigma-vectors, one per row."""
        v = np.asarray(vecs, dtype=np.int64)
        big = self.tower.reconstitute(v.reshape(len(v), self.r, self.n))
        if not np.all(big.any(axis=1)):
            raise GeometryError("zero vector")
        return pg.rank_batch(self.big_space,
                             pg.normalize_batch(self.big_space, big))


class BCModel:
    """The Barlotti-Cofman frame Pi_r(Sigma', Sigma, S) ~ PG(r, q1^n).

    Immutable after construction; X is the spread element of big-point rank 0
    and the vertex point p the least-rank point of X.
    """

    def __init__(self, tower: FieldTower, r: int):
        if r < 2:  # PG(1, q1^n) is blocked only by all of its points
            raise GeometryError(f"need r >= 2, got r = {r}")
        self.tower = tower
        self.n = tower.n
        self.r = r
        self.q1 = tower.sub.q
        n = self.n
        self.spread = Spread(self.tower, r)
        self.sigma_prime = ProjSpace(r * n, self.tower.sub)
        self.pi_space = ProjSpace(r, self.tower.sup)
        sig = np.zeros((r * n, r * n + 1), dtype=np.int64)
        sig[:, : r * n] = np.eye(r * n, dtype=np.int64)
        self.sigma = Subspace(self.sigma_prime, sig)
        self.x_index = 0
        self.X = self.element_subspace(self.x_index)
        self.vertex_p = self.X.point_vecs()[0]

    # -- spread elements in Sigma' coordinates ------------------------------

    def _lift(self, sigma_vecs: np.ndarray) -> np.ndarray:
        out = np.zeros((sigma_vecs.shape[0], self.r * self.n + 1), dtype=np.int64)
        out[:, : self.r * self.n] = sigma_vecs
        return out

    def element_subspace(self, index: int) -> Subspace:
        return Subspace(self.sigma_prime,
                        self._lift(self.spread.element_generators(index)))

    # -- the point maps into PG(r, q1^n) ------------------------------------

    def bc_to_pg_batch(self, vecs: np.ndarray) -> np.ndarray:
        v = np.asarray(vecs, dtype=np.int64)
        if np.any(v[:, -1] == 0):
            raise GeometryError("point of Sigma passed as affine")
        sub = self.tower.sub
        scale = sub.inv_table[v[:, -1]]
        v = sub.mul_table[scale[:, None], v]
        blocks = v[:, : self.r * self.n].reshape(-1, self.r, self.n)
        big = self.tower.reconstitute(blocks)  # (N, r)
        out = np.concatenate([big, np.ones((len(big), 1), dtype=np.int64)], axis=1)
        return pg.normalize_batch(self.pi_space, out)

    def spread_to_pg_vec(self, index: int) -> np.ndarray:
        # x is canonical, so (x, 0) is too
        return np.append(pg.unrank(self.spread.big_space, index), 0)

    # -- hyperplane blow-up --------------------------------------------------

    def blowup_forms(self, dual_vec) -> np.ndarray:
        """(n, rn+1) matrix of small-field linear forms whose common kernel is
        the blow-up of the hyperplane with the given dual point."""
        a = np.asarray(dual_vec, dtype=np.int64)
        forms = np.zeros((self.n, self.r * self.n + 1), dtype=np.int64)
        for i in range(self.r):
            M = self.tower.blowup_matrix(int(a[i]))
            forms[:, i * self.n : (i + 1) * self.n] = M
        forms[:, -1] = self.tower.coords(int(a[self.r]))
        return forms

    def hyperplane_blowup(self, dual_vec) -> Subspace:
        forms = self.blowup_forms(dual_vec)
        gens = linalg.kernel_basis(forms, self.tower.sub)
        return Subspace(self.sigma_prime, gens, _canonical=True)

    # -- reguli --------------------------------------------------------------

    def regulus_of_line(self, line: Subspace) -> tuple[int, ...]:
        """Indices of the spread elements meeting a line of Sigma that is not
        inside a single element."""
        if line.dim != 1 or not self.sigma.contains_sub(line):
            raise GeometryError("expected a line inside Sigma")
        idx = sorted(set(self.spread.elements_of_vecs(
            line.point_vecs()[:, :-1]).tolist()))
        if len(idx) == 1:
            raise GeometryError("line is contained in a spread element")
        return tuple(idx)

    def manifest(self) -> dict:
        return {
            "q1": self.q1,
            "n": self.n,
            "r": self.r,
            "small_modulus": self.tower.sub.manifest(),
            "big_modulus": self.tower.sup.manifest(),
            "basis": list(self.tower.basis),
            "x_index": self.x_index,
            "vertex_p": self.vertex_p.tolist(),
        }
