"""The brute-force cone oracle on PG(2, 4), and the cone code against it."""

import numpy as np
import pytest

from blockcone.model import make_model
from blockcone.mps import f_search_minimal, frame_make, mps_build

import cone_oracle


@pytest.fixture(scope="module")
def model():
    return make_model(2, 2, 2)


def test_minimal_nontrivial_cones_are_nine_point_unitals(model):
    """The 4 lines of Gamma' through Theta split its 8 affine points into
    pairs; a non-trivial Bbar takes at most one point of each, and with
    three or fewer it misses an affine plane of the family.  So a minimal
    non-trivial cone output has 4 * q1 + 1 = 9 points, never 7."""
    inc = cone_oracle.pi_incidence(model)
    for omega in model.X.point_vecs():
        found = cone_oracle.minimal_nontrivial_cones(model, omega)
        assert len(found) == 8
        for B in found:
            assert len(B) == 9
            hits = inc[:, sorted(B)].sum(axis=1)
            assert set(hits.tolist()) == {1, 3}


def test_no_baer_subplane_through_x_is_an_omega_cone(model):
    """The 7-point non-trivial blocking sets of PG(2, 4) are its Baer
    subplanes, 360 * 7 / 21 = 120 of them through X; none is a cone."""
    baer = cone_oracle.nontrivial_blocking_sets_through_x(model, 7)
    assert len(baer) == 120
    cones = set()
    for omega in model.X.point_vecs():
        cones.update(cone_oracle.omega_cones(model, omega))
    assert not cones.intersection(baer)


# frame_make gives the same frame for some consecutive seeds (1 and 2, 3 and
# 4, ...), so the cross-check takes seeds with pairwise distinct frames
ORACLE_SEEDS = (0, 1, 3, 5)


def test_oracle_seeds_give_distinct_frames(model):
    frames = {(tuple(f.omega.point_ranks().tolist()),
               tuple(f.gamma_prime.point_ranks().tolist()))
              for f in (frame_make(model, 0, seed) for seed in ORACLE_SEEDS)}
    assert len(frames) == len(ORACLE_SEEDS)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_search_outputs_match_oracle(model, seed):
    frame = frame_make(model, 0, seed)
    # max_size 9 = Theta plus all 8 affine points: the search is exhaustive
    built = {frozenset(mps_build(frame, item["bbar"]).ranks.tolist())
             for item in f_search_minimal(frame, 9) if not item["trivial"]}
    omega = frame.omega.point_vecs()[0]
    assert built == cone_oracle.minimal_nontrivial_cones(model, omega)


def test_classify_on_known_sets(model):
    inc = cone_oracle.pi_incidence(model)
    line = np.flatnonzero(inc[0])
    assert cone_oracle.classify(inc, line) == (True, True, True)
    assert cone_oracle.classify(inc, line[:4]) == (False, False, False)
    # a line plus a point off it blocks but is not minimal
    off = int(np.flatnonzero(~inc[0])[0])
    assert cone_oracle.classify(inc, [*line, off]) == (True, False, True)
