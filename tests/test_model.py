"""Spread and model isomorphism checks."""

import numpy as np
import pytest

from blockcone import pg
from blockcone.linalg import matmul
from blockcone.model import make_model
from blockcone.pg import GeometryError, ProjSpace, Subspace, meet, span, \
    span_in

from cone_oracle import bc_to_pg_vec, pg_to_bc


@pytest.fixture(scope="module")
def tiny():
    return make_model(2, 2, 2)  # PG(2,4) inside PG(4,2)


@pytest.fixture(scope="module")
def big():
    return make_model(4, 3, 3)  # PG(3,64) inside PG(9,4)


def sigma_space(spread) -> ProjSpace:
    """Sigma = PG(rn - 1, q1), the space the spread partitions."""
    return ProjSpace(spread.r * spread.n - 1, spread.tower.sub)


def element_point_vecs(spread, index: int) -> np.ndarray:
    """Canonical Sigma-coordinate vectors (length rn) of one element,
    rank-sorted."""
    return Subspace(sigma_space(spread),
                    spread.element_generators(index)).point_vecs()


def test_spread_partitions_sigma_exhaustive(tiny):
    sp = tiny.spread
    seen = []
    for i in range(sp.big_space.n_points):
        ranks = pg.rank_batch(sigma_space(sp), element_point_vecs(sp, i))
        seen.append(ranks)
        assert len(ranks) == (tiny.q1**tiny.n - 1) // (tiny.q1 - 1)
    allr = np.concatenate(seen)
    assert len(np.unique(allr)) == len(allr) == sigma_space(sp).n_points


def test_spread_partitions_sigma_q3(tiny):
    m = make_model(3, 2, 2)
    sp = m.spread
    allr = np.concatenate([pg.rank_batch(sigma_space(sp),
                                         element_point_vecs(sp, i))
                           for i in range(sp.big_space.n_points)])
    assert len(np.unique(allr)) == len(allr) == sigma_space(sp).n_points


def test_spread_elements_pairwise_disjoint_sampled(big):
    rng = np.random.default_rng(0)
    for _ in range(30):
        i, j = rng.integers(0, big.spread.big_space.n_points, size=2)
        if i == j:
            continue
        A = big.element_subspace(int(i))
        B = big.element_subspace(int(j))
        assert A.dim == B.dim == big.n - 1
        assert meet(A, B).dim == -1


def _element_from_all_points(model, index):
    """Oracle: the element through big point `index` as the row-reduced span
    of all its points, the Sigma-coordinates of every nonzero big-field
    multiple of that point (rank-sorted canonical vectors, and the lifted
    Subspace)."""
    spread = model.spread
    sigma = sigma_space(spread)
    sup = model.tower.sup
    x = pg.unrank(spread.big_space, index)
    lam = np.arange(1, sup.q)
    vecs = model.tower.coords(sup.mul_table[lam[:, None], x[None, :]])
    vecs = pg.normalize_batch(sigma, vecs.reshape(len(lam), -1))
    ranks = np.unique(pg.rank_batch(sigma, vecs))
    vecs = pg.unrank_batch(sigma, ranks)
    lifted = np.hstack([vecs, np.zeros((len(vecs), 1), dtype=np.int64)])
    return vecs, Subspace(model.sigma_prime, lifted)


@pytest.mark.parametrize("q1,n,r", [(2, 2, 2), (3, 2, 2), (4, 3, 3)])
def test_element_subspace_closed_form_every_element(q1, n, r):
    model = make_model(q1, n, r)
    for i in range(model.spread.big_space.n_points):
        vecs, expect = _element_from_all_points(model, i)
        assert model.element_subspace(i) == expect
        assert np.array_equal(element_point_vecs(model.spread, i), vecs)


def test_element_subspace_closed_form_sampled_q3():
    model = make_model(9, 3, 3)  # the q = 3 frame: PG(2, 729) in PG(8, 9)
    rng = np.random.default_rng(8)
    for i in rng.choice(model.spread.big_space.n_points, size=50, replace=False):
        vecs, expect = _element_from_all_points(model, int(i))
        assert model.element_subspace(int(i)) == expect
        assert expect.dim == model.n - 1
        assert np.array_equal(model.spread.elements_of_vecs(vecs),
                              np.full(len(vecs), i))


def test_element_of_vec_inverts_enumeration(big):
    rng = np.random.default_rng(1)
    for i in rng.integers(0, big.spread.big_space.n_points, size=25):
        vecs = element_point_vecs(big.spread, int(i))
        for v in vecs[:: max(1, len(vecs) // 4)]:
            assert big.spread.elements_of_vecs(v[None, :])[0] == i


@pytest.mark.parametrize("fix", ["tiny", "big"])
def test_point_map_roundtrip(fix, request):
    model = request.getfixturevalue(fix)
    rng = np.random.default_rng(2)
    pi = model.pi_space
    for r in rng.integers(0, pi.n_points, size=200):
        v = pg.unrank(pi, int(r))
        back = pg_to_bc(model, v)
        if isinstance(back, tuple):
            assert back[0] == "spread"
            assert np.array_equal(model.spread_to_pg_vec(back[1]), v)
        else:
            assert np.array_equal(bc_to_pg_vec(model, back), v)


@pytest.mark.parametrize("fix,n_pairs", [("tiny", 10_000), ("big", 500)])
def test_incidence_isomorphism(fix, n_pairs, request):
    """Incidence in PG(r, q1^n) iff representation is inside the blow-up."""
    model = request.getfixturevalue(fix)
    rng = np.random.default_rng(3)
    pi = model.pi_space
    pts = rng.integers(0, pi.n_points, size=n_pairs)
    hyps = rng.integers(0, pi.n_points, size=n_pairs)
    for pr, hr in zip(pts, hyps):
        v = pg.unrank(pi, int(pr))
        a = pg.unrank(pi, int(hr))
        inc = matmul(v[None], a[:, None], pi.field)[0, 0] == 0
        blow = model.hyperplane_blowup(a)
        rep = pg_to_bc(model, v)
        if isinstance(rep, tuple):
            inside = blow.contains_sub(model.element_subspace(rep[1]))
        else:
            inside = blow.contains(rep)
        assert inc == inside


def test_blowup_dimension(big):
    rng = np.random.default_rng(4)
    for r in rng.integers(0, big.pi_space.n_points, size=20):
        blow = big.hyperplane_blowup(pg.unrank(big.pi_space, int(r)))
        assert blow.dim == (big.r - 1) * big.n  # hyperplane blows to this


def is_pi_line(model, S: Subspace) -> bool:
    """A line of Pi_r: an n-subspace of Sigma' meeting Sigma in a spread
    element."""
    if S.dim != model.n:
        return False
    inf = meet(S, model.sigma)
    if inf.dim != model.n - 1:
        return False
    pts = inf.point_vecs()
    return len(set(model.spread.elements_of_vecs(pts[:, :-1]).tolist())) == 1


@pytest.mark.parametrize("fix", ["tiny", "big"])
def test_pi_lines_blow_to_n_subspaces(fix, request):
    model = request.getfixturevalue(fix)
    pi = model.pi_space
    rng = np.random.default_rng(5)
    done = 0
    while done < 10:
        a, b = rng.integers(0, pi.n_points, size=2)
        if a == b:
            continue
        line = span_in(pi, [pg.unrank(pi, int(a)), pg.unrank(pi, int(b))])
        if line.dim != 1:
            continue
        parts = []
        for v in line.point_vecs():
            rep = pg_to_bc(model, v)
            if isinstance(rep, tuple):
                parts.append(model.element_subspace(rep[1]))
            else:
                parts.append(span_in(model.sigma_prime, [rep]))
        S = span(parts)
        assert is_pi_line(model, S)
        for part in parts:
            assert S.contains_sub(part)
        done += 1


def test_regulus_of_line(tiny):
    # a line of Sigma not inside one element meets q1+1 elements
    sp = tiny.sigma_prime
    t = tiny.element_subspace(1).point_vecs()[0]
    p = tiny.vertex_p
    line = span_in(sp, [p, t])
    reg = tiny.regulus_of_line(line)
    assert len(reg) == tiny.q1 + 1
    with pytest.raises(GeometryError):
        tiny.regulus_of_line(Subspace(sp, tiny.X.mat[:2]))


def test_sigma_and_frame_choices(big):
    assert big.sigma.dim == big.r * big.n - 1
    assert big.X.dim == big.n - 1
    assert big.X.contains(big.vertex_p)
    # X is the element through the rank-0 big point, p its least point
    assert big.spread.elements_of_vecs(big.X.point_vecs()[:1, :-1])[0] == 0
    man = big.manifest()
    for key in ("q1", "n", "r", "small_modulus", "big_modulus", "basis",
                "x_index", "vertex_p"):
        assert key in man
    # X' is the PG(3, q^6) example's choice, not the model's
    assert "xprime_index" not in man
    assert not hasattr(big, "Xprime")


def test_make_model_rejects_non_prime_power():
    for q1 in (6, 12, 0, 1, -3):
        with pytest.raises(GeometryError, match="not a prime power"):
            make_model(q1, 2, 2)
