"""Certification engine against the naive double-loop oracle."""

import numpy as np
import pytest

from blockcone import pg, verify
from blockcone.gf import cached_field
from blockcone.pg import PointSet, ProjSpace, span_in


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
    sp = _space(3, 2, 2)
    rng = np.random.default_rng(2)
    ps = PointSet(sp, rng.integers(0, sp.n_points, size=25))
    base = verify.blocking_check(ps, workers=1)
    for w in (2, 3, 8, 64):
        cov = verify.blocking_check(ps, workers=w)
        assert np.array_equal(cov.counts, base.counts)
        assert cov.uncovered_sample == base.uncovered_sample


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
