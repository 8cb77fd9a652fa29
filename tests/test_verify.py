"""Certification engine against the naive double-loop oracle."""

import numpy as np
import pytest

from blockcone import pg, verify
from blockcone.gf import cached_field
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
    # a small chunk makes the sample span several chunks
    monkeypatch.setattr(verify, "_SCAN_CHUNK", 7)
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
        assert pg.incident(v, a, sp)
        hits = sum(1 for u in ps.vecs() if pg.incident(u, a, sp))
        assert hits == 1


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
def test_triviality_matches_line_enumeration(m, p, k):
    sp = _space(m, p, k)
    lines = set()
    for a in range(sp.n_points):
        for b in range(a + 1, sp.n_points):
            L = span_in(sp, pg.unrank_batch(sp, np.array([a, b])))
            lines.add(frozenset(int(r) for r in L.point_ranks()))
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(150):
        size = int(rng.integers(1, sp.n_points))
        ps = PointSet(sp, rng.choice(sp.n_points, size=size, replace=False))
        members = set(int(r) for r in ps.ranks)
        expect = any(line <= members for line in lines)
        assert verify.triviality_check(ps) == expect
        seen.add(expect)
    assert seen == {True, False}


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


def test_run_checks_report_schema():
    sp = _space(2, 2, 2)
    ps = _line_set(sp)
    rep = verify.run_checks(ps, {"demo": 1},
                            ["blocking", "minimal", "trivial", "planar"])
    out = rep.to_dict()
    assert out["manifest"] == {"demo": 1}
    assert out["sizes"]["set"] == len(ps)
    assert out["blocking"]["total"] == sp.n_points
    assert out["blocking"]["uncovered"] == []
    assert out["minimality"]["minimal"] is True
    assert out["trivial"] is True  # a line is the trivial blocking set
    assert out["planar"]["span_dim"] == 1
    assert "timings_ms" in out
