"""Cone construction and the family-blocking machinery on tiny instances."""

import numpy as np
import pytest

from blockcone import pg, verify
from blockcone.model import make_model
from blockcone.mps import (MPSFrame, cone, f_blocking_check,
                           f_search_minimal, frame_make, mps_build,
                           mps_size_predict)
from blockcone.pg import GeometryError, PointSet, meet, span, span_in

from mps_oracle import bbar_without_x


@pytest.fixture(scope="module")
def frame():
    return frame_make(make_model(2, 2, 2), s=0)


@pytest.fixture(scope="module")
def minimal_sets(frame):
    return f_search_minimal(frame, max_size=6)


def test_frame_validates(frame):
    frame.validate()
    assert frame.omega.dim == 0
    assert frame.gamma.dim == 2 and frame.gamma_prime.dim == 3
    assert frame.theta.dim == 0


def test_frame_validation_catches_broken_frames(frame):
    m = frame.model
    bad = MPSFrame(m, 0, frame.omega, frame.gamma, frame.gamma, frame.theta)
    with pytest.raises(GeometryError):
        bad.validate()


def test_lemma1_cone_spans_meet_in_omega(frame):
    """<pbar, Omega> and <pbar', Omega> meet exactly in Omega for distinct
    affine base points."""
    gp = frame.gamma_prime
    sp = gp.space
    aff = [v for v in gp.point_vecs() if v[-1] != 0]
    rng = np.random.default_rng(0)
    for _ in range(1000):
        i, j = rng.integers(0, len(aff), size=2)
        if i == j:
            continue
        A = span([frame.omega, aff[i]])
        B = span([frame.omega, aff[j]])
        assert meet(A, B) == frame.omega


def test_cone_size(frame):
    sp = frame.model.sigma_prime
    base = PointSet(sp, frame.theta.point_ranks())
    K = cone(frame.omega, base)
    # vertex point + a full line to each base point off the vertex
    q = sp.q
    assert len(K) == 1 + len(base) * (q + 1 - 1)


def test_size_formula_spot_values():
    assert mps_size_predict(4, 2, 2, 0) == 7
    assert mps_size_predict(58, 4, 3, 0) == 213
    assert mps_size_predict(308, 9, 3, 0) == 2683
    assert mps_size_predict(1, 2, 2, 0) == 1
    with pytest.raises(GeometryError):
        mps_size_predict(0, 2, 2, 0)


def test_search_minimal_results(minimal_sets):
    assert minimal_sets, "tiny search must find F-blocking sets"
    sizes = sorted({len(item["bbar"]) for item in minimal_sets})
    assert sizes == [3, 5]
    trivial_sizes = sorted({len(i["bbar"]) for i in minimal_sets
                            if i["trivial"]})
    nontrivial_sizes = sorted({len(i["bbar"]) for i in minimal_sets
                               if not i["trivial"]})
    assert trivial_sizes == [3]
    assert nontrivial_sizes == [5]


def test_search_refuses_gamma_prime_of_63_points():
    # (q1, n, r, s) = (2, 3, 2, 0): d = n - s - 1 = 2, the least d the
    # search's d = 1 triviality does not cover, and Gamma' = PG(5, 2)
    frame = frame_make(make_model(2, 3, 2), 0)
    assert frame.model.n - frame.s - 1 == 2
    assert frame.gamma_prime.n_points() == 63
    with pytest.raises(GeometryError, match="too large"):
        f_search_minimal(frame, 6)


def test_teo6_formula_on_all_built_instances(frame, minimal_sets):
    for item in minimal_sets:
        B = mps_build(frame, item["bbar"])  # raises if formula violated
        assert len(B) == mps_size_predict(len(item["bbar"]),
                                          frame.model.q1, frame.model.n,
                                          frame.s)


def test_teo4_blocking_in_pi(frame, minimal_sets):
    for item in minimal_sets:
        B = mps_build(frame, item["bbar"])
        cov = verify.blocking_check(B)
        assert cov.blocking


def test_teo5_minimality_biconditional(frame, minimal_sets):
    """B minimal in Pi iff Bbar minus X minimal for the family; checked on
    every minimal search result and on non-minimal supersets."""
    gp = frame.gamma_prime
    sp = gp.space
    aff_ranks = [pg.rank_of(sp, v) for v in gp.point_vecs() if v[-1] != 0]

    def f_minimal(bbar):
        core = bbar_without_x(frame, bbar)
        chk = f_blocking_check(bbar, frame)
        if chk["violations"]:
            return None  # not even blocking
        for rk in core.ranks:
            rest = PointSet(sp, np.setdiff1d(bbar.ranks, [rk]))
            if not f_blocking_check(rest, frame)["violations"]:
                return False
        return True

    cases = [item["bbar"] for item in minimal_sets]
    # non-minimal supersets: add one affine point to each minimal set
    rng = np.random.default_rng(1)
    for item in minimal_sets[:4]:
        extra = rng.choice(np.setdiff1d(aff_ranks, item["bbar"].ranks))
        cases.append(PointSet(sp, np.append(item["bbar"].ranks, extra)))

    for bbar in cases:
        fmin = f_minimal(bbar)
        assert fmin is not None
        B = mps_build(frame, bbar)
        cov = verify.blocking_check(B)
        assert cov.blocking
        mres = verify.minimality_check(B, cov)
        assert mres.minimal == fmin


def test_teo5_triviality_direction(frame, minimal_sets):
    for item in minimal_sets:
        B = mps_build(frame, item["bbar"])
        if verify.triviality_check(B):
            assert item["trivial"], \
                "B trivial must imply Bbar contains a complementary subspace"


def test_family_counts_against_naive_pi_incidence(frame, minimal_sets):
    bbar = minimal_sets[-1]["bbar"]
    chk = f_blocking_check(bbar, frame)
    B = mps_build(frame, bbar)
    counts = verify.naive_coverage(B)
    for rank, c in chk["counts"].items():
        assert counts[rank] == c


def test_bbar_must_live_in_gamma_prime(frame):
    sp = frame.model.sigma_prime
    outside = PointSet(sp, np.concatenate([frame.theta.point_ranks(),
                                           [pg.rank_of(sp, frame.model.vertex_p)]]))
    with pytest.raises(GeometryError):
        mps_build(frame, outside)


def test_f_blocking_check_validates_bbar(frame, minimal_sets):
    """Lemma 2 counts only hold for Bbar cap Sigma = Theta and Bbar inside
    Gamma': a point of Gamma off X, or an affine point off Gamma', is
    refused, as in `mps_build`."""
    sp = frame.model.sigma_prime
    bbar = minimal_sets[-1]["bbar"]
    gamma_off_x = np.setdiff1d(frame.gamma.point_ranks(),
                               frame.model.X.point_ranks())
    aff = np.flatnonzero(pg.unrank_batch(sp, np.arange(sp.n_points))[:, -1])
    off_gp = np.setdiff1d(aff, frame.gamma_prime.point_ranks())
    for extra, what in ((gamma_off_x[0], "Sigma != Theta"),
                        (off_gp[0], "not contained in Gamma'")):
        bad = PointSet(sp, np.append(bbar.ranks, extra))
        with pytest.raises(GeometryError, match=what):
            f_blocking_check(bad, frame)
        with pytest.raises(GeometryError, match=what):
            mps_build(frame, bad)


def test_seed_shifts_give_valid_frames():
    model = make_model(2, 2, 2)
    frames = [frame_make(model, 0, seed=s) for s in range(3)]
    for fr in frames:
        fr.validate()


def test_hyperplanes_avoiding_x_count(frame):
    # the family is every hyperplane missing X, by incidence, in rank order
    model = frame.model
    sp = model.pi_space
    ranks, duals = frame.family
    qn = model.q1**model.n
    assert len(ranks) == qn**model.r
    xvec = model.spread_to_pg_vec(model.x_index)
    expect = [r for r in range(sp.n_points)
              if not pg.incident(xvec, pg.unrank(sp, r), sp)]
    assert ranks.tolist() == expect
    assert np.array_equal(duals, pg.unrank_batch(sp, ranks))
