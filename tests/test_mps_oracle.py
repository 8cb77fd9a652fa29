"""The Lemma 2 family incidences, the pruned minimal-cover search and the
batched cone against their definition oracles in `mps_oracle`."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from blockcone.model import make_model
from blockcone import pg
from blockcone.mps import (_family_masks, _minimal_covers, cone,
                           f_search_minimal, frame_make)
from blockcone.pg import GeometryError, PointSet, ProjSpace, Subspace, meet

import mps_oracle


def listing(found):
    return [(item["bbar"].ranks.tolist(), item["trivial"]) for item in found]


# (q1, n, r, s), seeds, largest max size: every max size from 0 up to it
SEARCH_CASES = [((2, 2, 2, 0), (0, 1, 3, 5), 9),
                ((2, 3, 2, 1), (0, 1), 7),
                ((3, 2, 2, 0), (0,), 6)]


def test_family_size_and_member_dimension():
    frame = frame_make(make_model(2, 2, 2), 0)
    members = list(mps_oracle.family_enumerate(frame))
    q1, n, r = frame.model.q1, frame.model.n, frame.model.r
    # hyperplanes of PG(r, q1^n) missing the point X
    assert len(members) == (q1**n) ** r
    rn = frame.model.r * frame.model.n
    for _, I in members:
        # each member is a hyperplane of Gamma'
        assert I.dim == rn - frame.s - 2


@pytest.mark.parametrize("config", [c for c, _, _ in SEARCH_CASES])
def test_family_masks_match_members(config):
    """Lemma 2: the masks of the cone images against the member duals are
    the masks of the members built as subspaces, on every point of Gamma'
    off Sigma."""
    q1, n, r, s = config
    model = make_model(q1, n, r)
    for seed in range(4):
        frame = frame_make(model, s, seed)
        gp = frame.gamma_prime
        sigma_part = meet(gp, model.sigma).point_ranks()
        affine = np.setdiff1d(gp.point_ranks(), sigma_part)
        aff = pg.unrank_batch(gp.space, affine)
        want = mps_oracle.family_masks(frame, aff)
        assert all(want[1])
        assert _family_masks(frame, aff) == want, (config, seed)


@pytest.mark.parametrize("config,seeds,top", SEARCH_CASES)
def test_search_matches_oracle(config, seeds, top):
    q1, n, r, s = config
    model = make_model(q1, n, r)
    # the largest instance is searched at its top size only
    sizes = [top] if q1 == 3 else range(top + 1)
    for seed in seeds:
        frame = frame_make(model, s, seed)
        want = listing(mps_oracle.f_search_minimal(frame, top))
        assert want
        for max_size in sizes:
            got = listing(f_search_minimal(frame, max_size))
            assert got == [w for w in want if len(w[0]) <= max_size], \
                (config, seed, max_size)


def test_search_below_theta_finds_nothing():
    for (q1, n, r, s), _, _ in SEARCH_CASES[:2]:
        frame = frame_make(make_model(q1, n, r), s)
        assert f_search_minimal(frame, len(frame.theta.point_ranks()) - 1) == []


def masks_of(member: np.ndarray) -> list[int]:
    return [sum(1 << f for f in np.flatnonzero(col).tolist())
            for col in member.T]


# 70 members, 2 points: point 0 alone meets member 0, point 1 alone member 69
_WIDE = np.ones((70, 2), dtype=bool)
_WIDE[0, 1] = _WIDE[69, 0] = False


@settings(max_examples=80, deadline=None)
@given(member=st.tuples(st.integers(0, 70), st.integers(0, 12)).flatmap(
           lambda shape: arrays(np.bool_, shape)),
       max_k=st.integers(-1, 12))
@example(member=_WIDE, max_k=2)
@example(member=np.zeros((0, 3), dtype=bool), max_k=2)
def test_minimal_covers_match_combinations(member, max_k):
    full = (1 << member.shape[0]) - 1
    assert _minimal_covers(masks_of(member), full, max_k) == \
        mps_oracle.minimal_covers(member, max_k)


def test_minimal_covers_wide_family():
    assert _minimal_covers(masks_of(_WIDE), (1 << 70) - 1, 2) == [(0, 1)]
    assert _minimal_covers(masks_of(_WIDE), (1 << 70) - 1, 1) == []
    assert _minimal_covers([1, 3], 3, -1) == []


# frames with s = 0 over GF(2) and GF(3), and with s = 1 over GF(2)
CONE_FRAMES = [((2, 2, 2), 0), ((3, 2, 2), 0), ((2, 3, 2), 1)]


@pytest.mark.parametrize("config,s", CONE_FRAMES)
def test_cone_matches_span_oracle(config, s):
    frame = frame_make(make_model(*config), s)
    vertex = frame.omega
    sp = vertex.space
    rng = np.random.default_rng(7)

    def check(v, ranks):
        base = PointSet(sp, np.asarray(ranks, dtype=np.int64))
        assert cone(v, base) == mps_oracle.cone(v, base)

    inside = vertex.point_ranks()
    for _ in range(20):
        check(vertex, rng.choice(sp.n_points, rng.integers(1, 7),
                                 replace=False))
    check(vertex, inside)  # base inside the vertex: the vertex alone
    check(vertex, inside[:1])
    # two base points on one line through the vertex, with and without a
    # third point inside the vertex
    b = int(np.setdiff1d(np.arange(sp.n_points), inside)[-1])
    line = mps_oracle.cone(vertex, PointSet(sp, [b]))
    pair = np.setdiff1d(line.ranks, inside)[:2]
    check(vertex, pair)
    check(vertex, np.append(pair, inside[-1]))
    # an empty vertex: the cone is its base
    empty = Subspace.empty(sp)
    for _ in range(5):
        ranks = rng.choice(sp.n_points, rng.integers(1, 7), replace=False)
        check(empty, ranks)
        assert cone(empty, PointSet(sp, ranks)) == PointSet(sp, ranks)


def test_cone_errors():
    frame = frame_make(make_model(2, 2, 2), 0)
    sp = frame.omega.space
    with pytest.raises(GeometryError, match="empty cone base"):
        cone(frame.omega, PointSet(sp, np.zeros(0, dtype=np.int64)))
    other = ProjSpace(sp.m - 1, sp.field)
    with pytest.raises(GeometryError, match="different spaces"):
        cone(frame.omega, PointSet(other, [0, 1]))
