"""Projective space substrate: canonical points, rank/unrank, subspaces."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockcone import linalg, pg
from blockcone.gf import cached_field
from blockcone.pg import (GeometryError, PointSet, ProjSpace, Subspace,
                          load_point_set, meet, save_point_set, span, span_in)


def _space(m, p, k=1):
    return ProjSpace(m, cached_field(p, k))


@pytest.mark.parametrize("m,p,k", [(2, 2, 2), (3, 2, 1), (4, 3, 1),
                                   (3, 2, 6), (9, 2, 2)])
def test_point_count_formula(m, p, k):
    sp = _space(m, p, k)
    q = p**k
    assert sp.n_points == (q ** (m + 1) - 1) // (q - 1)


@pytest.mark.parametrize("m,p,k", [(2, 2, 2), (3, 3, 1), (5, 2, 1), (3, 2, 6)])
def test_rank_unrank_roundtrip_full(m, p, k):
    sp = _space(m, p, k)
    ranks = np.arange(sp.n_points)
    vecs = pg.unrank_batch(sp, ranks)
    # canonical: leftmost nonzero is 1
    piv = np.argmax(vecs != 0, axis=1)
    assert np.all(vecs[np.arange(len(vecs)), piv] == 1)
    assert np.array_equal(pg.rank_batch(sp, vecs), ranks)
    # all distinct
    assert len(np.unique(vecs, axis=0)) == sp.n_points


def test_unrank_is_lexicographic():
    sp = _space(2, 2, 2)
    vecs = pg.unrank_batch(sp, np.arange(sp.n_points))
    keys = [tuple(v) for v in vecs]
    assert keys == sorted(keys)


def test_normalize_scale_invariance_exhaustive_gf4():
    sp = _space(3, 2, 2)
    rng = np.random.default_rng(0)
    vec = rng.integers(0, 4, size=(50, 4))
    vec[vec.sum(axis=1) == 0, 0] = 1
    f = sp.field
    for v in vec:
        base = pg.normalize(sp, v)
        for lam in range(1, 4):
            assert np.array_equal(pg.normalize(sp, f.mul_table[lam, v]), base)


def test_zero_vector_rejected():
    sp = _space(3, 2, 1)
    with pytest.raises(GeometryError):
        pg.normalize(sp, np.zeros(4, dtype=np.int64))
    with pytest.raises(GeometryError):
        pg.unrank(sp, sp.n_points)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1364))
def test_rank_unrank_hypothesis_pg54(r):
    sp = _space(5, 2, 2)
    assert pg.rank_of(sp, pg.unrank(sp, r)) == r


# -- incidence ---------------------------------------------------------------

@pytest.mark.parametrize("m,p,k", [(3, 3, 1), (2, 2, 2), (4, 2, 1)])
def test_incident_dual_ranks_vs_bruteforce(m, p, k):
    sp = _space(m, p, k)
    duals = pg.unrank_batch(sp, np.arange(sp.n_points))
    rng = np.random.default_rng(1)
    for r in rng.integers(0, sp.n_points, size=20):
        v = pg.unrank(sp, int(r))
        expect = np.flatnonzero(
            pg.dot(sp, duals, np.broadcast_to(v, duals.shape)) == 0)
        got = pg.incident_dual_ranks(sp, v)
        assert np.array_equal(got, expect)
        assert got.size == sp.hyperplanes_per_point()


@pytest.mark.parametrize("m,p,k", [(2, 2, 1), (2, 3, 2), (3, 2, 2),
                                   (4, 3, 1), (5, 2, 1)])
def test_incident_dual_ranks_every_point(m, p, k):
    # every point, hence every pivot and every last-nonzero position; the
    # ranks come out in increasing order
    sp = _space(m, p, k)
    duals = pg.unrank_batch(sp, np.arange(sp.n_points))
    last_nonzero = set()
    for v in duals:
        last_nonzero.add(int(np.flatnonzero(v)[-1]))
        expect = np.flatnonzero(
            pg.dot(sp, duals, np.broadcast_to(v, duals.shape)) == 0)
        got = pg.incident_dual_ranks(sp, v)
        assert got.size == sp.hyperplanes_per_point()
        assert np.array_equal(got, expect)
    assert last_nonzero == set(range(m + 1))


def test_incident_dual_ranks_spot_check_pg3_729():
    sp = _space(3, 3, 6)
    rng = np.random.default_rng(7)
    for r in rng.integers(0, sp.n_points, size=3):
        v = pg.unrank(sp, int(r))
        got = pg.incident_dual_ranks(sp, v)
        assert got.size == sp.hyperplanes_per_point() == 729**2 + 729 + 1
        assert got.min() >= 0 and got.max() < sp.n_points
        assert np.all(np.diff(got) > 0)
        sample = pg.unrank_batch(sp, rng.choice(got, size=64, replace=False))
        assert np.all(pg.dot(sp, sample, np.broadcast_to(v, sample.shape)) == 0)


@pytest.mark.parametrize("m,p,k", [(3, 3, 1), (4, 2, 2), (5, 2, 1),
                                   (3, 2, 3), (2, 3, 2)])
@pytest.mark.parametrize("chunk", [5, 1 << 13])
def test_hyperplane_point_ranks_walk_rank_order(m, p, k, chunk):
    # every hyperplane of PG(3,3), PG(4,4), PG(5,2), PG(3,8), PG(2,9): its
    # points walked as c @ M (M the kernel's RREF matrix, c the coefficient
    # vectors in rank order, in chunks, as `example36._least_h` walks
    # Gamma') come out in rank order, and are the closed form's ranks
    sp = _space(m, p, k)
    for r in range(sp.n_points):
        form = pg.unrank(sp, r)
        kernel = Subspace(sp, linalg.kernel_basis(form[None], sp.field))
        coeff = ProjSpace(kernel.dim, sp.field)
        walk = np.concatenate([
            pg.rank_batch(sp, linalg.matmul(pg.unrank_batch(coeff, np.arange(
                lo, min(lo + chunk, coeff.n_points))), kernel.mat, sp.field))
            for lo in range(0, coeff.n_points, chunk)])
        assert np.all(np.diff(walk) > 0)
        assert np.array_equal(walk, pg.incident_dual_ranks(sp, form))


# -- subspaces ---------------------------------------------------------------

def _random_subspace(sp, rng, max_gens):
    n = rng.integers(1, max_gens + 1)
    vecs = pg.unrank_batch(sp, rng.integers(0, sp.n_points, size=n))
    return span_in(sp, vecs)


@pytest.mark.parametrize("m,p,k", [(4, 2, 1), (3, 3, 1), (4, 2, 2)])
def test_grassmann_identity_random_pairs(m, p, k):
    sp = _space(m, p, k)
    rng = np.random.default_rng(2)
    for _ in range(10_000 // 10):  # 10^3 pairs per space; 3 spaces
        A = _random_subspace(sp, rng, m)
        B = _random_subspace(sp, rng, m)
        S = span([A, B])
        M = meet(A, B)
        assert A.dim + B.dim == S.dim + M.dim


def test_grassmann_identity_bulk_pg42():
    sp = _space(4, 2, 1)
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        A = _random_subspace(sp, rng, 3)
        B = _random_subspace(sp, rng, 3)
        assert A.dim + B.dim == span([A, B]).dim + meet(A, B).dim


def test_subspace_equality_is_representation_independent():
    sp = _space(3, 2, 2)
    rng = np.random.default_rng(4)
    vecs = pg.unrank_batch(sp, rng.integers(0, sp.n_points, size=3))
    A = span_in(sp, vecs)
    B = span_in(sp, vecs[::-1])
    f = sp.field
    scaled = f.mul_table[2, vecs[0]]
    C = span_in(sp, np.vstack([vecs[1:], scaled[None, :]]))
    assert A == B == C
    assert len({A, B, C}) == 1


def test_subspace_point_enumeration_and_membership():
    sp = _space(3, 3, 1)
    A = span_in(sp, pg.unrank_batch(sp, np.array([0, 5, 17])))
    pts = A.point_vecs()
    assert len(pts) == A.n_points()
    for v in pts:
        assert A.contains(v)
    # dual forms vanish exactly on the subspace
    forms = A.dual_forms()
    assert forms.shape[0] == sp.m - A.dim
    for fvec in forms:
        assert np.all(pg.dot(sp, pts, np.broadcast_to(fvec, pts.shape)) == 0)


@pytest.mark.parametrize("m,p,k", [(5, 2, 1), (4, 3, 1), (4, 2, 2),
                                   (3, 2, 3), (3, 3, 2)])
def test_point_vecs_canonical_in_rank_order(m, p, k):
    # c -> c @ mat keeps rank order and canonical form for an RREF mat, so
    # the point list needs no normalization and no sort
    sp = _space(m, p, k)
    rng = np.random.default_rng([m, p, k])
    every = pg.unrank_batch(sp, np.arange(sp.n_points))
    subspaces = [Subspace.empty(sp), Subspace.full(sp)]
    subspaces += [_random_subspace(sp, rng, m + 1) for _ in range(20)]
    for S in subspaces:
        vecs = S.point_vecs()
        assert np.array_equal(pg.normalize_batch(sp, vecs), vecs)
        assert np.all(np.diff(pg.rank_batch(sp, vecs)) > 0)
        inside = ~linalg.matmul(every, S.dual_forms().T, sp.field).any(axis=1)
        assert np.array_equal(vecs, every[inside])


@pytest.mark.parametrize("m,p,k", [(4, 2, 2), (3, 3, 2)])
def test_contains_iff_coords_of(m, p, k):
    # one reduction serves both: v is in the subspace exactly when its
    # coefficients exist, and they then rebuild v from the generator rows
    sp = _space(m, p, k)
    rng = np.random.default_rng([m, p, k])
    inside = outside = 0
    for _ in range(30):
        S = _random_subspace(sp, rng, m)
        combos = linalg.matmul(rng.integers(0, sp.q, size=(4, S.dim + 1)),
                               S.mat, sp.field)
        for v in np.vstack([combos, rng.integers(0, sp.q, size=(4, m + 1))]):
            if S.contains(v):
                inside += 1
                c = S.coords_of(v)
                assert np.array_equal(linalg.matmul(c[None, :], S.mat,
                                                    sp.field)[0], v)
            else:
                outside += 1
                with pytest.raises(ValueError, match="not in row space"):
                    S.coords_of(v)
    assert inside and outside


def test_meet_of_disjoint_lines_is_empty():
    sp = _space(3, 2, 1)
    L1 = span_in(sp, [[1, 0, 0, 0], [0, 1, 0, 0]])
    L2 = span_in(sp, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert meet(L1, L2).dim == -1
    assert span([L1, L2]) == Subspace.full(sp)


# -- point sets and file format ---------------------------------------------

def test_pointset_set_algebra():
    sp = _space(3, 2, 1)
    A = PointSet(sp, np.array([3, 1, 1, 7]))
    B = PointSet(sp, np.array([7, 8]))
    assert list(A.ranks) == [1, 3, 7]
    assert list(A.union(B).ranks) == [1, 3, 7, 8]
    assert list(A.minus(B).ranks) == [1, 3]
    assert list(A.intersect(B).ranks) == [7]
    assert 3 in A and 4 not in A
    assert PointSet.from_vecs(sp, A.vecs()) == A


def test_pointset_dedup_and_vecs_unranked_once():
    sp = _space(3, 2, 2)
    raw = np.random.default_rng(6).integers(0, sp.n_points, size=60)
    for ranks in (raw, raw[:1], raw[:0]):
        ps = PointSet(sp, ranks)
        assert np.array_equal(ps.ranks, np.unique(ranks))
        assert not ps.ranks.flags.writeable
        v = ps.vecs()
        assert ps.vecs() is v and not v.flags.writeable
        assert np.array_equal(v, pg.unrank_batch(sp, ps.ranks))


def test_pointset_file_roundtrip(tmp_path):
    sp = _space(3, 2, 2)
    ps = PointSet(sp, np.array([0, 9, 44, 80]))
    path = tmp_path / "pts.txt"
    save_point_set(ps, path)
    assert load_point_set(path) == ps
    header = path.read_text().splitlines()[0]
    assert header == "2 2 4"


def test_pointset_file_renormalizes_with_warning(tmp_path):
    sp = _space(2, 2, 2)
    path = tmp_path / "bad.txt"
    path.write_text("2 2 3\n2 2 0\n")  # non-canonical scaling of (1,1,0)
    with pytest.warns(UserWarning):
        ps = load_point_set(path)
    assert len(ps) == 1
    assert np.array_equal(ps.vecs()[0], [1, 1, 0])


def test_pointset_file_malformed(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("2 2\n")
    with pytest.raises(GeometryError):
        load_point_set(path)
