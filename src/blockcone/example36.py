"""The non-planar cone example in PG(3, q^6).

Works inside Sigma' = PG(9, q^2) with the 2-spread of Sigma: two spread
elements X, X' are fixed, a Baer-subplane cone over a vertex point of
Theta = Gamma cap X is punctured along its unique real line through a point
t of X' and repaired with one generator (Bbar), a second cone over three
lines of X' from an outside point h supplies the affine part Btilde, and
B = K(p, Bbar cup Btilde) cup {X} is a minimal non-planar blocking set of
PG(3, q^6) whose cardinality 4q^6 - 3q^4 + q^2 + 1 rules out the plain
cone-over-hyperplane-blocking-set family on divisibility grounds.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf, pg, verify
from .gf import cached_field, is_prime, subfield_embed
from .linalg import kernel_basis, matmul, rref
from .model import BCModel, make_model, prime_power
from .mps import MPSFrame, cone, cone_image_vecs, frame_make, \
    member_ranks, mps_build
from .pg import GeometryError, PointSet, ProjSpace, Subspace, meet, span, span_in


@dataclass(eq=False)
class Example36Frame:
    q: int
    seed: int
    model: BCModel
    xprime_index: int      # X' = the spread element 1 + (seed mod 8)
    Xprime: Subspace
    mps: MPSFrame          # Omega = {p}, s = 0
    r_pt: np.ndarray       # least-rank point of Theta (cone vertex)
    q_tilde: np.ndarray    # second point of Theta
    t: np.ndarray          # least-rank point of X'
    pi: Subspace           # plane of Gamma' with pi cap Sigma = <t, q_tilde>
    V: PointSet            # Baer subplane of pi through q_tilde
    L: Subspace            # the unique real line of pi through t
    s_pt: np.ndarray       # least-rank point of V cap L
    t_tilde: np.ndarray    # the distinguished second point of X' (regulus)
    h: np.ndarray          # cone point outside <X, X', pi>
    lines_xp: tuple[Subspace, Subspace, Subspace]  # L1, L2, L3 in X'
    bbar: PointSet         # Sigma' ranks
    btilde: PointSet       # Sigma' ranks

    @cached_property
    def xprime_members(self) -> np.ndarray:
        """The X'-subfamily, sorted and read-only, computed once per frame
        for the spectra, the structural checks and tangency: the ranks of
        the family members (the ranks outside the MPS frame's `x_ranks`)
        through the point of X'."""
        model = self.model
        ranks = np.setdiff1d(
            pg.incident_dual_ranks(
                model.pi_space, model.spread_to_pg_vec(self.xprime_index)),
            self.mps.x_ranks, assume_unique=True)
        ranks.setflags(write=False)
        return ranks


@dataclass(eq=False)
class Bundle:
    frame: Example36Frame
    B: PointSet  # Pi_3 = PG(3, q^6) ranks

    @cached_property
    def coverage(self) -> verify.CoverageResult:
        """B's one count: blocking, minimality and both theorems read it."""
        return verify.blocking_check(self.B)

    def manifest(self) -> dict:
        fr = self.frame
        m = fr.model
        sp = m.sigma_prime
        man = m.manifest()
        vertex_p = man.pop("vertex_p")  # keeps the bundles' key order
        return {
            **man,
            "xprime_index": fr.xprime_index,
            "vertex_p": vertex_p,
            "q": fr.q,
            "seed": fr.seed,
            "sizes": {"bbar": len(fr.bbar), "btilde": len(fr.btilde),
                      "B": len(self.B)},
            "r_pt": int(pg.rank_of(sp, fr.r_pt)),
            "q_tilde": int(pg.rank_of(sp, fr.q_tilde)),
            "t": int(pg.rank_of(sp, fr.t)),
            "s_pt": int(pg.rank_of(sp, fr.s_pt)),
            "t_tilde": int(pg.rank_of(sp, fr.t_tilde)),
            "h": int(pg.rank_of(sp, fr.h)),
        }


def frame36_make(q: int, seed: int = 0) -> Example36Frame:
    """Deterministic frame for the PG(3, q^6) example: X = element 0,
    X' = element 1 + (seed mod 8), and the MPS frame Omega = {p}, s = 0 of
    `mps.frame_make` through X': p = least point of X, Gamma = the
    hyperplane of Sigma of the least form vanishing on X' and not on p."""
    prime_power(q)  # make_model(q * q) alone would accept q = -3
    model = make_model(q * q, 3, 3)
    sp = model.sigma_prime
    xprime_index = 1 + seed % 8
    Xprime = model.element_subspace(xprime_index)
    frame0 = frame_make(model, 0, through=Xprime)

    theta_pts = frame0.theta.point_vecs()
    r_pt, q_tilde = theta_pts[0], theta_pts[1]
    t = Xprime.point_vecs()[0]
    e = pg.unrank(sp, 0)  # the least-rank affine point; lies in Gamma'
    pi = span_in(sp, [t, q_tilde, e])
    tangent = span_in(sp, [t, q_tilde])
    if pi.dim != 2 or meet(pi, model.sigma) != tangent:
        raise GeometryError("plane pi does not meet Sigma in <t, q_tilde>")

    V = baer_subplane(pi, q_tilde, tangent, q, seed=seed)

    L = _unique_real_line_through(t, V, q)
    s_pt = pg.unrank(sp, int(np.intersect1d(V.ranks, L.point_ranks(),
                                            assume_unique=True)[0]))

    bbar = _bbar_build(model, r_pt, V, L, s_pt, frame0.theta_ranks)

    t_tilde = t_tilde_find(model, Xprime, t, r_pt)

    lines_xp = _choose_xprime_lines(Xprime, t, t_tilde)
    h = _least_h(model, Xprime, frame0.gamma_prime, pi)
    btilde = _btilde_build(model, h, lines_xp)

    if len(bbar.intersect(btilde)):
        raise GeometryError("Bbar and Btilde are not disjoint")
    return Example36Frame(q=q, seed=seed, model=model,
                          xprime_index=xprime_index, Xprime=Xprime,
                          mps=frame0, r_pt=r_pt, q_tilde=q_tilde, t=t, pi=pi,
                          V=V, L=L, s_pt=s_pt, t_tilde=t_tilde, h=h,
                          lines_xp=lines_xp, bbar=bbar, btilde=btilde)


# ---------------------------------------------------------------------------
# Baer subplanes and line classification


def baer_subplane(pi: Subspace, q_tilde: np.ndarray, tangent_line: Subspace,
                  q: int, seed: int = 0) -> PointSet:
    """Subfield subplane of order q inside the plane pi (order q^2) through
    q_tilde, chosen by deterministic quadrangle search so that it meets the
    tangent line exactly in {q_tilde}.  The points are walked as their
    coefficient vectors on pi.mat, in rank order (`Subspace.point_vecs`): a
    quadrangle (e0, e1, e2, d) frames a subplane iff the RREF of the columns
    [e0 e1 e2 d] has pivots (0, 1, 2) and a last column c with no zero."""
    space = pi.space
    big = space.field  # GF(q^2)
    p, e = prime_power(q)
    small = cached_field(p, e)
    emb = subfield_embed(small, big)

    qt_rank = pg.rank_of(space, q_tilde)
    tangent_ranks = tangent_line.point_ranks()
    e0 = pi.coords_of(q_tilde)
    coeff = ProjSpace(2, big)
    cand = pg.unrank_batch(coeff, np.arange(coeff.n_points))
    cand = cand[np.any(cand != e0, axis=1)]

    coeff_small = pg.unrank_batch(ProjSpace(2, small),
                                  np.arange(q * q + q + 1))
    coeff_emb = emb[coeff_small]

    n = len(cand)
    offset = seed % n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                e1, e2, d = cand[[(i + offset) % n, (j + offset) % n,
                                  (k + offset) % n]]
                R, piv = rref(np.stack([e0, e1, e2, d], axis=1), big)
                c = R[:, -1]
                if piv != (0, 1, 2) or not np.all(c):
                    continue
                rows = np.stack([big.mul_table[c[0], e0],
                                 big.mul_table[c[1], e1],
                                 big.mul_table[c[2], e2]])
                internal = matmul(coeff_emb, rows, big)
                vecs = matmul(internal, pi.mat, big)
                V = PointSet.from_vecs(space, vecs)
                if len(V) != q * q + q + 1:
                    raise GeometryError("degenerate subfield subplane")
                hit = tangent_ranks[verify.in_sorted(V.ranks, tangent_ranks)]
                if np.array_equal(hit, [qt_rank]):
                    return V
    raise GeometryError("no admissible Baer subplane (cannot happen)")


def line_class(line: Subspace, target: PointSet, q: int,
               vertex: np.ndarray | None = None) -> tuple[str, int]:
    """Classify a line against a Baer subplane (or a Baer cone, in which case
    the cone vertex must not lie on the line): 'real' iff it meets the target
    in q+1 points, 'imaginary' iff in exactly one."""
    if line.dim != 1:
        raise GeometryError("line expected")
    if vertex is not None and line.contains(vertex):
        raise GeometryError("line through the cone vertex")
    hits = int(np.count_nonzero(verify.in_sorted(target.ranks,
                                                 line.point_ranks())))
    if hits == q + 1:
        return "real", hits
    if hits == 1:
        return "imaginary", hits
    if hits == 0:
        return "external", hits
    raise GeometryError(f"broken frame: line meets target in {hits} points")


def _unique_real_line_through(t: np.ndarray, V: PointSet, q: int) -> Subspace:
    """The one real line through t, a point of V's plane off V: a real line
    meets V, so it is among the spans of t with V's points, spanned by
    q + 1 of them."""
    lines = Counter(span_in(V.space, [t, v]) for v in V.vecs())
    real = [L for L, hits in lines.items() if hits == q + 1]
    if len(real) != 1:
        raise GeometryError(f"expected one real line through t, got {len(real)}")
    return real[0]


# ---------------------------------------------------------------------------
# the two cones


def _bbar_build(model: BCModel, r_pt, V: PointSet, L: Subspace, s_pt,
                theta_ranks: np.ndarray) -> PointSet:
    sp = model.sigma_prime
    q4 = model.q1 ** 2
    base = PointSet(sp, np.append(
        np.setdiff1d(V.ranks, L.point_ranks(), assume_unique=True),
        pg.rank_of(sp, s_pt)))
    bbar = cone(span_in(sp, [r_pt]), base)
    vecs = bbar.vecs()
    aff = int(np.sum(vecs[:, -1] != 0))
    if aff != q4:
        raise GeometryError(f"|Bbar \\ Sigma| = {aff}, expected {q4}")
    if not np.array_equal(bbar.ranks[vecs[:, -1] == 0], theta_ranks):
        raise GeometryError("Bbar cap Sigma != Theta")
    return bbar


def t_tilde_find(model: BCModel, Xprime: Subspace, t, r_pt) -> np.ndarray:
    """The unique point of X' \\ {t} lying, over the vertex p, above the
    regulus of the line <t, r_pt>, cross-checked against the regulus
    characterization.

    By definition y in X' \\ {t} is disqualified iff y lies in <p, S2> for
    an element S2 of the big line <X, X'> missing <t, r_pt>.  As vector
    spaces <p, S2> = GF(q1).p + S2, so the elements S2 with y in <p, S2> are
    exactly the elements through the points y - a.p, a in GF(q1), all on
    <X, X'> (a = 0 gives X', on the regulus).  Those elements are computed
    for every y in one batch; y qualifies iff all of them meet <t, r_pt>."""
    sp, p_vec = model.sigma_prime, model.vertex_p
    f = model.tower.sub
    rn = model.r * model.n
    reg = model.regulus_of_line(span_in(sp, [t, r_pt]))

    xp_pts = Xprime.point_vecs()
    ys = xp_pts[np.any(xp_pts != t, axis=1)]
    minus_ap = f.neg_table[f.mul_table[np.arange(f.q)[:, None],
                                       p_vec[None, :rn]]]  # (q1, rn)
    diffs = f.add_table[ys[:, None, :rn], minus_ap[None, :, :]]
    idx = model.spread.elements_of_vecs(diffs.reshape(-1, rn))
    alive = np.isin(idx, reg).reshape(len(ys), f.q).all(axis=1)
    if alive.sum() != 1:
        raise GeometryError(
            f"regulus point not unique: {alive.sum()} qualifiers")
    t_tilde = ys[np.argmax(alive)]

    if reg != model.regulus_of_line(span_in(sp, [p_vec, t_tilde])):
        raise GeometryError("regulus characterization disagrees with the scan")
    return t_tilde


def _choose_xprime_lines(xp: Subspace, t, t_tilde):
    """First three lines of X' (internal dual-rank order) avoiding t and
    t_tilde with empty common intersection."""
    sp = xp.space
    f = sp.field
    int_space = ProjSpace(2, f)
    duals = pg.unrank_batch(int_space, np.arange(int_space.n_points))
    # internal coordinates of t and t_tilde, one per column
    ts = np.stack([xp.coords_of(t), xp.coords_of(t_tilde)], axis=1)
    chosen: list[Subspace] = []
    chosen_duals: list[np.ndarray] = []
    for a in duals[matmul(duals, ts, f).all(axis=1)]:
        if len(chosen) == 2:
            # the putative common point of L1 and L2 must be off L3
            common = kernel_basis(np.stack(chosen_duals), f)
            if matmul(a[None], common[:1].T, f)[0, 0] == 0:
                continue
        internal = kernel_basis(a[None, :], f)
        gens = matmul(internal, xp.mat, f)
        chosen.append(Subspace(sp, gens))
        chosen_duals.append(a)
        if len(chosen) == 3:
            return tuple(chosen)
    raise GeometryError("no admissible line triple in X'")


# coefficient vectors per chunk of `_least_h`'s walk
_WALK_CHUNK = 1 << 13


def _least_h(model: BCModel, Xprime: Subspace, gamma_prime: Subspace,
             pi: Subspace) -> np.ndarray:
    """Least-rank point of Gamma' outside Sigma and outside <X, X', pi>.

    Gamma' must be a hyperplane of Sigma'.  Its points are c @ M for M its
    RREF matrix and c over the canonical coefficient vectors, walked in rank
    order in chunks of `_WALK_CHUNK`; the map keeps rank order
    (`Subspace.point_vecs`), so the first admissible c gives the least
    point.  Both conditions are read on c: the last coordinate of c @ M is
    c . M[:, -1], and a form w of <X, X', pi> vanishes on c @ M iff the form
    M @ w does on c.  Only the chosen c is mapped into Sigma'."""
    sp = model.sigma_prime
    if gamma_prime.dim != sp.m - 1:
        raise GeometryError("Gamma' is not a hyperplane of Sigma'")
    f, M = sp.field, gamma_prime.mat
    coeff = ProjSpace(gamma_prime.dim, f)
    w_forms = span([model.X, Xprime, pi]).dual_forms()
    # column 0 reads the last coordinate, the others the forms of <X, X', pi>
    cols = np.hstack([M[:, -1:], matmul(M, w_forms.T, f)])
    for lo in range(0, coeff.n_points, _WALK_CHUNK):
        c = pg.unrank_batch(coeff, np.arange(
            lo, min(lo + _WALK_CHUNK, coeff.n_points)))
        vals = matmul(c, cols, f)
        ok = (vals[:, 0] != 0) & vals[:, 1:].any(axis=1)
        if np.any(ok):
            return matmul(c[np.argmax(ok)][None], M, f)[0]
    raise GeometryError("no admissible h (cannot happen)")


def _btilde_build(model: BCModel, h, lines_xp) -> PointSet:
    sp = model.sigma_prime
    base = PointSet(sp, np.concatenate([L.point_ranks() for L in lines_xp]))
    full = cone(span_in(sp, [h]), base)
    vecs = full.vecs()
    btilde = PointSet(sp, full.ranks[vecs[:, -1] != 0])
    q2 = model.q1
    expect = 3 * q2 * q2 - 3 * q2 + 1
    if len(btilde) != expect:
        raise GeometryError(f"|Btilde| = {len(btilde)}, expected {expect}")
    return btilde


def example_build(q: int, seed: int = 0) -> Bundle:
    """Full pipeline: frame, Bbar, Btilde, and B = K(p, Bbar u Btilde) u {X}
    in PG(3, q^6) coordinates, with the closed-form cardinalities enforced."""
    frame = frame36_make(q, seed)
    bbar_union = frame.bbar.union(frame.btilde)
    B = mps_build(frame.mps, bbar_union)  # checks B's size formula
    expect = 4 * q**6 - 3 * q**4 + q**2 + 1
    if len(B) != expect:
        raise GeometryError(f"|B| = {len(B)}, expected {expect}")
    return Bundle(frame=frame, B=B)


# ---------------------------------------------------------------------------
# the hyperplane family of Pi_3, counted on the cone's Pi-image

def _image_ranks(frame: MPSFrame, vecs: np.ndarray) -> np.ndarray:
    """Ranks of the Pi_r-images u + a.p, a in GF(q1), of the affine rows u of
    vecs, over the vertex {p} of the example's MPS frame: q1 consecutive
    ranks per u."""
    model = frame.model
    pts = cone_image_vecs(model, frame.omega_rows, vecs[vecs[:, -1] != 0])
    return pg.rank_batch(model.pi_space, pts)


def cone_image(frame: MPSFrame, ps: PointSet) -> PointSet:
    """Pi_r-image of the affine part of the cone K(p, ps) over the vertex
    {p} of the example's MPS frame: the q1 points u + a.p, a in GF(q1), of
    each affine point u of ps.  Points of ps inside Sigma are dropped, since
    their cone lines stay inside Sigma.  Two affine points on one line
    through p would share their image, so that is refused."""
    ranks = _image_ranks(frame, ps.vecs())
    image = PointSet(frame.model.pi_space, ranks)
    if len(image) != len(ranks):
        raise GeometryError("two points of the set lie on one line through p")
    return image


def _as_dict(hist: np.ndarray) -> dict:
    return {v: int(c) for v, c in enumerate(hist) if c}


class FamilyScanner:
    """Evaluates, for every hyperplane H of Pi_3 missing X at once, whether a
    Sigma'-point u lies in S7 = <blowup(H), p>.

    This is the definition-level S7 membership test, kept as the oracle that
    the Lemma 2 counts, which both scans read off B's count, are checked
    against on small spaces.  With F(u) the big-field linear form of H on
    u's coordinate blocks, u lies in S7 iff F(u) is a GF(q^2)-multiple of
    F(p), F(p) never being zero because p sits on X which H misses."""

    def __init__(self, frame: Example36Frame):
        self.model = model = frame.model
        self.ranks, self.duals = frame.mps.family
        xp_vec = model.spread_to_pg_vec(frame.xprime_index)
        # as row @ duals.T, each term gathers a column of duals by a scalar
        self.ht_mask = matmul(xp_vec[None], self.duals.T,
                              model.pi_space.field)[0] == 0
        sup = model.tower.sup
        lut = np.zeros(sup.q, dtype=bool)
        lut[model.tower.embedding] = True
        self._in_small = lut
        self._fp = self._form_values(model.vertex_p)
        if np.any(self._fp == 0):
            raise GeometryError("F(p) vanished; hyperplane family is broken")
        self._fp_inv = sup.inv_table[self._fp]

    def _form_values(self, u) -> np.ndarray:
        model = self.model
        tower, rn = model.tower, model.r * model.n
        u = np.asarray(u, dtype=np.int64)
        # u's big-field coordinates: r reconstituted blocks, the last embedded
        big = np.append(tower.reconstitute(u[:rn].reshape(model.r, model.n)),
                        tower.embedding[u[-1]])
        return matmul(big[None], self.duals.T, tower.sup)[0]

    def membership(self, u) -> np.ndarray:
        """Boolean vector over the family: u in S7?"""
        ratio = self.model.tower.sup.mul_table[self._form_values(u),
                                               self._fp_inv]
        return self._in_small[ratio]


def _cone_count(bundle: Bundle) -> verify.CoverageResult:
    """B's count, once B is checked to be K(p, Bbar u Btilde) u {X}: only
    then does it count the parts' cone images on the members (Lemma 2)."""
    fr = bundle.frame
    if bundle.B != mps_build(fr.mps, fr.bbar.union(fr.btilde)):
        raise GeometryError("B is not K(p, Bbar u Btilde) u {X} of the frame")
    return bundle.coverage


def spectrum_scan(bundle: Bundle) -> dict:
    """Intersection spectra of Bbar and Btilde over the family of the
    hyperplanes H of Pi_3 missing X, and Btilde's dichotomy on the
    X'-subfamily.  The first tile batch (in rank order) with a value out of
    a proved spectrum aborts the scan, naming its least member out of
    Bbar's set, or else out of Btilde's.

    Lemma 2: for H missing X, |S_aff cap <blowup(H), p>| =
    |K(p, S)_aff cap H|, the count of S's cone image (`cone_image`, without
    Bbar's points on Theta = Gamma cap X, which misses p, the one point of
    X on any S7).  As B = image(Bbar) u image(Btilde) u {X} (`_cone_count`),
    c_Btilde = c_B - c_Bbar on the members: one tile pass counts image(Bbar)
    against B's count, which saturates at 255 only where c_Bbar >= 255 -
    |Btilde| (38 at q = 3), out of Bbar's spectrum."""
    fr = bundle.frame
    q, bt = fr.q, len(fr.btilde)
    counts = _cone_count(bundle).counts
    x_ranks, xp_members = fr.mps.x_ranks, fr.xprime_members
    spectra = {"bbar": {0, 1, q, q + 1}, "btilde": {0, 1, 2, 3, q * q, bt}}

    def histogram(part, c, lo, x):  # x: the batch's cells through X
        c[x] = 0
        h = np.bincount(c, minlength=bt + 1)  # no allowed value exceeds bt
        h[0] -= x.size
        bad = set(np.flatnonzero(h).tolist()) - spectra[part]
        if bad:
            i = lo + int(np.argmax(np.isin(c, sorted(bad))))
            raise GeometryError(
                f"spectrum violation: |S7 cap {part}| = {c[i - lo]} at dual "
                f"{pg.unrank(bundle.B.space, i).tolist()} (rank {i})")
        return h

    # the histograms of both parts, and of Btilde's on the X'-subfamily
    hist = {k: np.zeros(bt + 1, dtype=np.int64) for k in (*spectra, "ht")}
    image = cone_image(fr.mps, fr.bbar)
    for lo, c in verify._Tiles(image.space, image.vecs()).counts():
        hi = lo + c.size
        x, xp = (r[slice(*np.searchsorted(r, (lo, hi)))] - lo
                 for r in (x_ranks, xp_members))
        hist["bbar"] += histogram("bbar", c, lo, x)
        np.subtract(counts[lo:hi], c, out=c)  # c_Btilde, in place
        hist["btilde"] += histogram("btilde", c, lo, x)
        hist["ht"] += np.bincount(c[xp], minlength=bt + 1)
    bbar, btilde, ht = hist.values()
    if not set(np.flatnonzero(ht).tolist()) <= {0, bt}:
        raise GeometryError("dichotomy on the X'-family fails")
    if not set(np.flatnonzero(btilde - ht).tolist()) <= {1, 2, 3, q * q}:
        raise GeometryError("off-X'-family spectrum violation")
    return {"bbar": {"target": "bbar", "histogram": _as_dict(bbar)},
            "btilde": {"target": "btilde", "histogram": _as_dict(btilde),
                       "ht_histogram": _as_dict(ht)}}


# members per side of the X'-subfamily in `structural_checks`' sample
_STRUCTURAL_HALF = 50


def structural_checks(bundle: Bundle) -> dict:
    """Sampled dimension facts: S7 cap <Bbar> is a line off Sigma (through t
    on the X'-subfamily, and then contained in <t, r, s> whenever real), and
    S7 cap <Btilde> is a line off Sigma outside that subfamily.  The sample
    is 50 members of the X'-subfamily and 50 of the rest of the family, so
    that every clause runs: a uniform sample of 100 holds about one
    X'-member at q = 3."""
    fr = bundle.frame
    model = fr.model
    sp = model.sigma_prime
    x_ranks, xp_members = fr.mps.x_ranks, fr.xprime_members
    rng = np.random.default_rng(0)
    S3 = span([fr.pi, fr.r_pt])
    cone_v = cone(span_in(sp, [fr.r_pt]), fr.V)
    trs = span_in(sp, [fr.t, fr.r_pt, fr.s_pt])
    btilde_span = span([fr.Xprime, fr.h])
    # the members off the X'-subfamily are the ranks missing from both
    # (disjoint) lists
    xp = rng.choice(xp_members, size=_STRUCTURAL_HALF, replace=False)
    rest = np.sort(np.concatenate([x_ranks, xp_members]))
    off = member_ranks(rest, rng.choice(model.pi_space.n_points - rest.size,
                                        size=_STRUCTURAL_HALF, replace=False))
    ranks = np.concatenate([xp, off])
    n_real_t = 0
    for i, rank in enumerate(ranks):
        dual = pg.unrank(model.pi_space, int(rank))
        S7 = span([model.hyperplane_blowup(dual), model.vertex_p])
        line = meet(S7, S3)
        if line.dim != 1 or model.sigma.contains_sub(line):
            raise GeometryError("S7 cap <Bbar-solid> is not a line off Sigma")
        if i < xp.size:
            if not line.contains(fr.t):
                raise GeometryError("X'-subfamily meet line misses t")
            kind, _ = line_class(line, cone_v, fr.q, vertex=fr.r_pt)
            if kind == "real":
                if not trs.contains_sub(line):
                    raise GeometryError(
                        "real meet line through t escapes <t, r, s>")
                n_real_t += 1
        else:
            tline = meet(S7, btilde_span)
            if tline.dim != 1 or model.sigma.contains_sub(tline):
                raise GeometryError(
                    "S7 cap <Btilde> is not a line off Sigma")
    return {"sampled": ranks.size, "ht": xp.size, "off": off.size,
            "real_through_t": n_real_t}


def tangency_scan(bundle: Bundle) -> dict:
    """For every point u of (Bbar u Btilde) \\ Sigma, the least family
    member meeting Bbar u Btilde exactly in u, which must lie in the
    X'-subfamily for u in Bbar and outside it for u in Btilde.

    By Lemma 2 the members meeting the union exactly in u are the hyperplanes
    missing X through one of u's q1 cone-image points whose count over the
    union's image is 1.  As B = image u {X} (`_cone_count`), they are those
    through such a point whose count in B is 1, B's minimality witnesses:
    none passes through X, since u's q1 image points lie on one line through
    X.  So u's witness is the least of its image points' witnesses in B.
    The side is checked, not searched for: Btilde counts 0 or |Btilde| on
    the X'-subfamily and at least 1 off it, so every tangent lies on its
    part's side."""
    fr = bundle.frame
    model = fr.model
    witness = dict(verify.minimality_check(
        bundle.B, _cone_count(bundle)).essential)
    union = fr.bbar.union(fr.btilde)
    none = model.pi_space.n_points  # above every rank
    vecs = union.vecs()
    points = union.ranks[vecs[:, -1] != 0]
    best = np.array([witness.get(r, none) for r in
                     _image_ranks(fr.mps, vecs).tolist()])
    best = best.reshape(len(points), model.q1).min(axis=1)
    missing = points[best == none]
    if missing.size:
        raise GeometryError(
            f"points without tangent witness: {missing.tolist()}")
    in_bbar = verify.in_sorted(fr.bbar.ranks, points)
    in_family = verify.in_sorted(fr.xprime_members, best)
    wrong = np.flatnonzero(in_family != in_bbar)
    if wrong.size:
        i = wrong[0]
        raise GeometryError(
            f"tangent witness {best[i]} of point {points[i]} lies "
            f"{'outside' if in_bbar[i] else 'inside'} the X'-subfamily")
    witnesses = [{"point": int(u), "witness": int(w),
                  "in_xprime_family": bool(fam),
                  "part": "bbar" if part else "btilde"}
                 for u, w, fam, part in zip(points, best, in_family, in_bbar)]
    return {"witnesses": witnesses, "count": len(witnesses)}


# ---------------------------------------------------------------------------
# exclusion of the plain cone family on cardinality grounds


def mps_excluder(size: int, p: int, e: int) -> dict:
    """For every factorization 6e = n*t with n >= 2, test the necessary
    divisibility p^(t(n-1)) | size - 1 of a cone-over-hyperplane-blocking-set
    of that shape; 'excluded' iff every factorization fails.  q = p^e is a
    field order, so above the field bound it is refused at once."""
    if size < 2:
        raise GeometryError("size must be >= 2")
    if e < 1:
        raise GeometryError("e must be >= 1")
    if p >= 2 and gf.above_max_order(p, e):
        raise GeometryError(f"{p}^{e} exceeds the field bound {gf.MAX_ORDER}")
    if not is_prime(p):
        raise GeometryError(f"{p} is not prime")
    tried = []
    for n in range(2, 6 * e + 1):
        if (6 * e) % n == 0:
            t = 6 * e // n
            divisor = p ** (t * (n - 1))
            tried.append({"n": n, "t": t, "divisor": divisor,
                          "divides": (size - 1) % divisor == 0})
    admissible = [(f["n"], f["t"]) for f in tried if f["divides"]]
    return {"size": size, "p": p, "e": e, "factorizations": tried,
            "excluded": not admissible, "admissible": admissible}


# ---------------------------------------------------------------------------
# bundle (de)serialization


def bundle_to_dict(bundle: Bundle) -> dict:
    fr = bundle.frame
    return {
        "kind": "example36",
        "q": fr.q,
        "seed": fr.seed,
        "manifest": bundle.manifest(),
        "bbar": [int(x) for x in fr.bbar.ranks],
        "btilde": [int(x) for x in fr.btilde.ranks],
        "B": [int(x) for x in bundle.B.ranks],
    }


def load_bundle(path, strict: bool = True) -> Bundle:
    """Rebuild the frame deterministically from (q, seed); with strict=True
    the stored point sets must match the rebuild exactly, otherwise the
    stored B replaces the rebuilt one (so tampered bundles can be verified
    and honestly fail)."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("kind") != "example36":
        raise GeometryError(f"{path} is not an example bundle")
    pg.check_fields(data, path, ints=("q", "seed"),
                    int_lists=("bbar", "btilde", "B"))
    bundle = example_build(int(data["q"]), int(data["seed"]))
    mismatch = [key for key, ps in (("bbar", bundle.frame.bbar),
                                    ("btilde", bundle.frame.btilde),
                                    ("B", bundle.B))
                if [int(x) for x in ps.ranks] != data[key]]
    if mismatch:
        if strict:
            raise GeometryError(
                f"stored {', '.join(mismatch)} does not match the rebuild")
        stored = PointSet(bundle.B.space,
                          np.array(data["B"], dtype=np.int64))
        bundle = Bundle(frame=bundle.frame, B=stored)
    return bundle
