"""Certification engine against the naive double-loop oracle."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blockcone import cli, example36, pg, verify
from blockcone.gf import cached_field
from blockcone.linalg import matmul
from blockcone.pg import PointSet, ProjSpace, Subspace, span_in


def _space(m, p, k=1):
    return ProjSpace(m, cached_field(p, k))


def _line_set(sp, a=0, b=1):
    L = span_in(sp, [pg.unrank(sp, a), pg.unrank(sp, b)])
    return PointSet(sp, L.point_ranks())


@pytest.mark.parametrize("m,p,k", [(2, 2, 2), (3, 2, 1), (3, 3, 1)])
def test_blocking_counts_match_naive_oracle(m, p, k):
    sp = _space(m, p, k)
    rng = np.random.default_rng(0)
    ps = PointSet(sp, rng.integers(0, sp.n_points, size=12))
    cov = verify.blocking_check(ps)
    assert np.array_equal(cov.counts.astype(np.int64),
                          verify.naive_coverage(ps))


def test_counter_conservation():
    sp = _space(3, 3, 1)
    rng = np.random.default_rng(1)
    ps = PointSet(sp, rng.integers(0, sp.n_points, size=9))
    cov = verify.blocking_check(ps)
    assert cov.counts.sum() == len(ps) * sp.hyperplanes_per_point()


def test_worker_partitioning_is_invisible():
    # saturating counts of consecutive pieces merge into those of the whole
    sp = _space(3, 2, 2)
    rng = np.random.default_rng(2)
    ps = PointSet(sp, rng.integers(0, sp.n_points, size=25))
    base = verify.blocking_check(ps)
    for w in (2, 3, 8, 64):
        total = np.zeros(sp.n_points, dtype=np.int64)
        for piece in np.array_split(ps.ranks, w):
            total += verify.blocking_check(PointSet(sp, piece)).counts
        merged = np.minimum(total, 255).astype(np.uint8)
        assert np.array_equal(merged, base.counts)
        zeros = np.flatnonzero(merged == 0)
        assert zeros.size == base.uncovered_total
        assert zeros[:verify._UNCOVERED_SAMPLE].tolist() == \
            base.uncovered_sample


def test_counters_saturate_at_255():
    # the 273 points of the plane x0 = 0 of PG(3, 16): that plane's counter
    # caps at 255, every other plane meets the set in a line of 17 points
    sp = _space(3, 2, 4)
    plane = Subspace(sp, np.eye(4, dtype=np.int64)[1:])
    cov = verify.blocking_check(PointSet(sp, plane.point_ranks()))
    x0 = pg.rank_of(sp, [1, 0, 0, 0])
    assert cov.counts[x0] == 255
    assert np.all(np.delete(cov.counts, x0) == 17)


def test_counter_preflight_refuses_pg3_4096():
    # a q = 4 certificate asks for 6.9e10 counters; the check stops before
    # the field tables or the counters are built
    field = cached_field(2, 12)
    ps = PointSet(ProjSpace(3, field), np.array([0]))
    with pytest.raises(pg.ResourceError, match="GiB.*budget"):
        verify.blocking_check(ps)
    assert "_tables" not in vars(field)


@pytest.mark.parametrize("m,p,k,size", [(2, 2, 2, 3), (3, 3, 1, 3),
                                        (3, 2, 2, 4), (4, 2, 2, 5),
                                        (5, 2, 1, 6)])
def test_uncovered_sample_matches_dense_scan(m, p, k, size, monkeypatch):
    # 9, 12, 27, 72 and 0 uncovered hyperplanes: below and past the 32-rank
    # sample, and a blocking set
    sp = _space(m, p, k)
    ps = PointSet(sp, np.random.default_rng(size).integers(
        0, sp.n_points, size=size))
    # the sample is taken per tile batch; the least batch cap (4 q^2 cells)
    # makes it span several batches
    monkeypatch.setattr(verify, "_BATCH", 1)
    cov = verify.blocking_check(ps)
    dense = np.flatnonzero(cov.counts == 0)
    assert cov.uncovered_total == dense.size
    assert cov.uncovered_sample == dense[:verify._UNCOVERED_SAMPLE].tolist()


def test_line_blocks_plane_and_is_minimal():
    sp = _space(2, 2, 2)
    ps = _line_set(sp)
    cov = verify.blocking_check(ps)
    assert cov.blocking and cov.uncovered_total == 0
    mres = verify.minimality_check(ps, cov)
    assert mres.minimal
    # each witness is a tangent: contains the point, meets the set once
    for rank, wit in mres.essential:
        a = pg.unrank(sp, wit)
        v = pg.unrank(sp, rank)
        assert matmul(v[None], a[:, None], sp.field)[0, 0] == 0
        assert (matmul(ps.vecs(), a[:, None], sp.field) == 0).sum() == 1


def test_point_deleted_line_is_not_blocking():
    sp = _space(2, 2, 2)
    ps = _line_set(sp)
    broken = PointSet(sp, ps.ranks[:-1])
    cov = verify.blocking_check(broken)
    assert not cov.blocking
    assert cov.uncovered_total == sp.q  # hyperplanes through only the lost point
    assert cov.uncovered_sample


def test_augmented_line_is_not_minimal():
    sp = _space(2, 2, 2)
    ps = _line_set(sp)
    extra = next(r for r in range(sp.n_points) if r not in ps)
    fat = PointSet(sp, np.append(ps.ranks, extra))
    cov = verify.blocking_check(fat)
    mres = verify.minimality_check(fat, cov)
    assert not mres.minimal
    assert extra in mres.inessential


def test_minimality_rejects_foreign_coverage():
    sp = _space(2, 2, 2)
    cov = verify.blocking_check(_line_set(sp))
    with pytest.raises(ValueError):
        verify.minimality_check(PointSet(sp, np.array([0, 5, 9])), cov)


def test_blocking_and_minimality_share_one_tile_setup(monkeypatch):
    sp = _space(3, 3, 1)
    ps = PointSet(sp, np.random.default_rng(5).integers(0, sp.n_points,
                                                        size=8))
    built = []

    class Counted(verify._Tiles):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(verify, "_Tiles", Counted)
    cov = verify.blocking_check(ps)
    assert verify.minimality_check(ps, cov).essential
    assert len(built) == 1
    with pytest.raises(ValueError):
        verify.minimality_check(PointSet(sp, ps.ranks[1:]), cov)
    assert len(built) == 1


def test_triviality_detects_contained_line():
    sp = _space(3, 2, 1)
    line = _line_set(sp)
    rng = np.random.default_rng(3)
    fat = PointSet(sp, np.concatenate([line.ranks,
                                       rng.integers(0, sp.n_points, size=3)]))
    assert verify.triviality_check(fat)
    assert not verify.triviality_check(PointSet(sp, line.ranks[:-1]))
    assert not verify.triviality_check(PointSet(sp, np.array([0])))


@pytest.mark.parametrize("m,p,k", [(2, 2, 2), (3, 2, 1), (2, 3, 1)])
def test_triviality_matches_line_enumeration(m, p, k, monkeypatch):
    sp = _space(m, p, k)
    lines = set()
    for a in range(sp.n_points):
        for b in range(a + 1, sp.n_points):
            L = span_in(sp, pg.unrank_batch(sp, np.array([a, b])))
            lines.add(frozenset(int(r) for r in L.point_ranks()))
    rng = np.random.default_rng(4)
    seen = set()
    cases = []
    for _ in range(150):
        size = int(rng.integers(1, sp.n_points))
        ps = PointSet(sp, rng.choice(sp.n_points, size=size, replace=False))
        members = set(int(r) for r in ps.ranks)
        expect = any(line <= members for line in lines)
        assert verify.triviality_check(ps) == expect
        seen.add(expect)
        cases.append((ps, expect))
    assert seen == {True, False}
    # a set holding one line L and three points between L's two least
    # points a < b: the first pair of L, (a, b) = (0, 4), has pair index 3,
    # so with blocks of 3 pairs row 0 is split and L shows only in block 2
    split = next(
        members for line in sorted(map(sorted, lines))
        for extra in itertools.combinations(range(line[0] + 1, line[1]), 3)
        for members in [set(line) | set(extra)]
        if [L for L in lines if L <= members] == [frozenset(line)])
    cases.append((PointSet(sp, np.array(sorted(split))), True))
    for batch in (1, 3):
        monkeypatch.setattr(verify, "_BATCH", batch)
        for ps, expect in cases:
            assert verify.triviality_check(ps) == expect


def test_planarity():
    sp = _space(3, 2, 1)
    plane = span_in(sp, pg.unrank_batch(sp, np.array([0, 1, 5])))
    ps = PointSet(sp, plane.point_ranks())
    dim, planar = verify.planarity_check(ps)
    assert (dim, planar) == (2, True)
    full = PointSet(sp, np.arange(sp.n_points))
    assert verify.planarity_check(full) == (3, False)
    with pytest.raises(ValueError):
        verify.planarity_check(PointSet(sp, np.zeros(0, dtype=np.int64)))


def test_naive_oracle_refuses_large_spaces():
    sp = _space(9, 2, 2)
    with pytest.raises(ValueError):
        verify.naive_coverage(PointSet(sp, np.array([0])))


def test_verify_report_schema(tmp_path):
    # a line of PG(2, 4) as an mps bundle, through the CLI's one report
    # builder
    sp = _space(2, 2, 2)
    ps = _line_set(sp)
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"kind": "mps",
                                "manifest": {"q1": 2, "n": 2, "r": 2},
                                "B": ps.ranks.tolist()}))

    def report(checks):
        rep = tmp_path / "rep.json"
        code = cli.main(["verify", "--bundle", str(path), "--checks", checks,
                         "--report", str(rep)])
        return json.loads(rep.read_text()), code == 0

    out, ok = report("blocking,minimal,trivial,planar")
    assert ok is False  # trivial
    assert out["manifest"] == json.loads(path.read_text())["manifest"]
    assert out["sizes"]["set"] == len(ps)
    assert out["blocking"]["total"] == sp.n_points
    assert out["blocking"]["uncovered"] == []
    assert out["minimality"]["minimal"] is True
    assert out["trivial"] is True  # a line is the trivial blocking set
    assert out["planar"]["span_dim"] == 1
    assert "timings_ms" in out
    # planar is no failure in a plane
    out, ok = report("blocking,minimal,planar")
    assert ok is True and out["planar"]["planar"] is True


def _least_tangents_naive(ps: PointSet, counts: np.ndarray) -> list[int]:
    """Per point, the least hyperplane rank through it with count 1, or -1,
    by a dense dot product over all hyperplanes."""
    sp = ps.space
    duals = pg.unrank_batch(sp, np.arange(sp.n_points))
    out = []
    for on in (matmul(duals, ps.vecs().T, sp.field) == 0).T:
        hits = np.flatnonzero(on & (counts == 1))
        out.append(int(hits[0]) if hits.size else -1)
    return out


_SPACES = [(2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1), (3, 3, 1),
           (3, 2, 2), (4, 2, 1), (4, 3, 1), (5, 2, 1)]


@st.composite
def _point_sets(draw):
    """A space PG(m, q), m = 2..5, and a point set drawing on all points, on
    those with v_m = 0 and on those with v_{m-1} = v_m = 0."""
    m, p, k = draw(st.sampled_from(_SPACES))
    sp = _space(m, p, k)
    vecs = pg.unrank_batch(sp, np.arange(sp.n_points))
    pools = [np.arange(sp.n_points), np.flatnonzero(vecs[:, m] == 0),
             np.flatnonzero(~vecs[:, m - 1:].any(axis=1))]
    ranks = []
    for pool in pools:
        idx = draw(st.lists(st.integers(0, pool.size - 1), max_size=12))
        ranks.extend(pool[idx].tolist())
    return PointSet(sp, np.array(ranks, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(_point_sets())
@example(PointSet(_space(3, 2, 1), np.zeros(0, dtype=np.int64)))
@example(PointSet(_space(3, 2, 1), np.arange(15)))  # every point inessential
# in rank order a diagonal, two whole and a row point, with least tangents
# 7, 4, 14 and 10: each kind names its tangent past the low tile
@example(PointSet(_space(3, 2, 1), np.array([0, 7, 11, 13])))
def test_tile_kernel_matches_naive_oracle(ps):
    cov = verify.blocking_check(ps)
    naive = verify.naive_coverage(ps)
    assert np.array_equal(cov.counts, np.minimum(naive, 255))
    mres = verify.minimality_check(ps, cov)
    expect = _least_tangents_naive(ps, naive)
    assert mres.essential == [(int(r), w) for r, w in zip(ps.ranks, expect)
                              if w >= 0]
    assert mres.inessential == [int(r) for r, w in zip(ps.ranks, expect)
                                if w < 0]
    # minimality only reads the coverage: a second call gives the same
    again = verify.minimality_check(ps, cov)
    assert (again.essential, again.inessential) == (mres.essential,
                                                    mres.inessential)


@pytest.mark.parametrize("m,p,k,size", [(3, 3, 1, 80), (4, 2, 1, 50),
                                        (2, 2, 3, 120)])
def test_tile_batches_are_invisible(m, p, k, size, monkeypatch):
    # with the smallest batch, tiles go one per batch and the points of a
    # tile in several gathers; counts and witnesses do not change
    sp = _space(m, p, k)
    ps = PointSet(sp, np.random.default_rng(size).integers(
        0, sp.n_points, size=size))
    base = verify.blocking_check(ps)
    wit = verify.minimality_check(ps, base)
    monkeypatch.setattr(verify, "_BATCH", 1)
    tiles = verify._Tiles(sp, ps.vecs())
    assert tiles.tiles == 1 and tiles.chunk < len(tiles.diag)
    cov = verify.blocking_check(ps)
    assert np.array_equal(cov.counts, base.counts)
    split = verify.minimality_check(ps, cov).essential
    assert split == wit.essential
    # and against the oracle: a tile's tangents are read from its count
    # summed over all its chunks
    naive = _least_tangents_naive(ps, verify.naive_coverage(ps))
    assert split == [(int(r), w) for r, w in zip(ps.ranks, naive) if w >= 0]


def _quadric_pg3_7() -> PointSet:
    """The 50 points of the elliptic quadric x0.x1 + x2^2 - 3.x3^2 = 0 of
    PG(3, 7) (GF(7) is the integers mod 7)."""
    sp = _space(3, 7, 1)
    v = pg.unrank_batch(sp, np.arange(sp.n_points))
    form = v[:, 0] * v[:, 1] + v[:, 2] ** 2 - 3 * v[:, 3] ** 2
    return PointSet(sp, np.flatnonzero(form % 7 == 0))


def test_split_batches_name_every_tangent(monkeypatch):
    # the random sets above have no tangents.  The elliptic quadric has 50
    # points, each on exactly one tangent plane, all past the low tile.
    # With the smallest batch its 42 diagonal points take two gathers per
    # tile, so a tile's tangents are read from its count over both
    ps = _quadric_pg3_7()
    sp = ps.space
    monkeypatch.setattr(verify, "_BATCH", 1)
    tiles = verify._Tiles(sp, ps.vecs())
    assert tiles.tiles == 1 and tiles.chunk < len(tiles.diag)
    assert tiles.row.size and tiles.whole.size
    naive = _least_tangents_naive(ps, verify.naive_coverage(ps))
    assert len(ps) == 50 and min(naive) > sp.q
    assert verify.blocking_check(ps).tangents.tolist() == naive


def test_cell_cap_bounds_every_gather(monkeypatch):
    # a cap below 4 q^2 cells, as at q = 4 (4 q^2 int64 cells are 512 MiB),
    # gives fewer diagonal points per gather: no gather holds more cells
    # than the cap, and the counts and tangents do not change.  Each point
    # of the quadric has a tangent
    ps = _quadric_pg3_7()
    sp = ps.space
    base = verify.blocking_check(ps)
    sizes = []

    class Counted(verify._Tiles):
        def _parts(self, *args):
            for ix, idx, per in super()._parts(*args):
                sizes.append(ix.size if per == 1 else 0)
                yield ix, idx, per

    monkeypatch.setattr(verify, "_Tiles", Counted)
    monkeypatch.setattr(verify, "_MAX_CELLS", 4 * sp.q)
    cov = verify.blocking_check(ps)
    assert max(sizes) == 4 * sp.q
    assert np.array_equal(cov.counts, base.counts)
    assert np.array_equal(cov.tangents, base.tangents)
    assert (base.tangents >= 0).all()


@pytest.mark.parametrize("batch", [verify._BATCH, 1])
def test_nonminimal_set_tangents_are_least_count_one_ranks(batch,
                                                           monkeypatch):
    # the q = 2 seed-0 B plus its first point (1, a, 0, 0) off B, one with
    # v_2 = v_3 = 0: that point lies on no tangent, since B blocks every hyperplane through it,
    # so it stays open to the last batch; a point of B whose tangents all
    # passed through it would lose them
    B = example36.example_build(2, 0).B
    sp = B.space
    extra = next(r for a in range(sp.q)
                 for r in [pg.rank_of(sp, [1, a, 0, 0])] if r not in B)
    ps = PointSet(sp, np.append(B.ranks, extra))
    monkeypatch.setattr(verify, "_BATCH", batch)
    cov = verify.blocking_check(ps)
    assert cov.blocking
    for v, best in zip(ps.vecs(), cov.tangents):
        hyps = pg.incident_dual_ranks(sp, v)
        ones = hyps[cov.counts[hyps] == 1]
        assert best == (ones[0] if ones.size else -1)
    assert verify.minimality_check(ps, cov).inessential == [extra]


def test_tiles_recount_pg3_729():
    # PG(3, 729): 300 seeded points, with points that have v_3 = 0 and
    # v_2 = v_3 = 0; the low tile, the pivot-1 tile and three seeded pivot-0
    # tiles against the points' incident dual ranks
    sp = _space(3, 3, 6)
    Q = sp.q
    rng = np.random.default_rng(11)
    vecs = rng.integers(0, Q, size=(300, 4))
    vecs[:40, 3] = 0
    vecs[40:60, 2:] = 0
    vecs[60, :] = [0, 0, 1, 0]
    ps = PointSet.from_vecs(sp, vecs[vecs.any(axis=1)])
    seeded = sorted(rng.choice(Q, size=3, replace=False).tolist())
    want = {0: Q + 1, Q + 1: Q * Q}
    want.update({int(sp.thresh[0]) + a * Q * Q: Q * Q for a in seeded})
    got = {}
    for lo, cnt in verify._Tiles(sp, ps.vecs()).counts():
        for w, size in want.items():
            if lo <= w < lo + cnt.size:
                got[w] = cnt[w - lo:w - lo + size]
        if len(got) == len(want):
            break
    expect = {lo: np.zeros(size, dtype=np.int64) for lo, size in want.items()}
    for v in ps.vecs():
        hyps = pg.incident_dual_ranks(sp, v)
        for lo, size in want.items():
            inside = hyps[(hyps >= lo) & (hyps < lo + size)]
            expect[lo] += np.bincount(inside - lo, minlength=size)
    for lo in want:
        assert np.array_equal(got[lo], expect[lo]), lo
