"""Field arithmetic against independent small-scale oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockcone.gf import (FieldError, FieldSpec, FieldTower, cached_field,
                          cached_tower, least_irreducible, subfield_embed)


def _naive_poly_mul_mod(a, b, modulus, p):
    """Schoolbook polynomial multiplication mod (modulus, p)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus
    k = len(modulus) - 1
    while len(prod) > k:
        lead = prod.pop()
        if lead:
            for j in range(k):
                prod[-k + j] = (prod[-k + j] - lead * modulus[j]) % p
    return [c % p for c in prod] + [0] * (k - len(prod))


def _digits(x, p, k):
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return out


def _encode(digs, p):
    return sum(int(d) * p**i for i, d in enumerate(digs))


# -- least irreducible moduli, checked against a brute-force oracle ----------

def _oracle_least_irreducible(p, k):
    """Brute force: smallest monic degree-k polynomial with no nontrivial
    monic divisor of degree <= k/2."""
    def poly_of(code):
        return _digits(code, p, k) + [1]

    def divides(d, f):
        # polynomial long division remainder == 0 ?
        f = list(f)
        while len(f) >= len(d) and any(f):
            if f[-1] == 0:
                f.pop()
                continue
            inv = pow(d[-1], p - 2, p) if p > 2 else d[-1]
            c = (f[-1] * inv) % p
            for j in range(len(d)):
                f[len(f) - len(d) + j] = (f[len(f) - len(d) + j] - c * d[j]) % p
            f.pop()
        return not any(f)

    for code in range(p**k):
        f = poly_of(code)
        ok = True
        for deg in range(1, k // 2 + 1):
            for dcode in range(p**deg):
                d = _digits(dcode, p, deg) + [1]
                if divides(d, f):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return f
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 6), (3, 2), (5, 2)])
def test_least_irreducible_matches_oracle(p, k):
    assert list(least_irreducible(p, k)) == _oracle_least_irreducible(p, k)


def test_known_moduli_manifests():
    assert cached_field(2, 2).manifest() == "2 2 1 1 1"       # x^2+x+1
    assert cached_field(2, 3).manifest() == "2 3 1 1 0 1"     # x^3+x+1
    assert cached_field(3, 2).manifest() == "3 2 1 0 1"       # x^2+1


# -- table arithmetic --------------------------------------------------------

@pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (2, 3), (7, 1)])
def test_field_axioms_random_triples(p, k):
    f = cached_field(p, k)
    rng = np.random.default_rng(7)
    a, b, c = rng.integers(0, f.q, size=(3, 10_000))
    add, mul = f.add_table, f.mul_table
    assert np.array_equal(add[a, add[b, c]], add[add[a, b], c])
    assert np.array_equal(mul[a, mul[b, c]], mul[mul[a, b], c])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    assert np.array_equal(add[a, b], add[b, a])
    assert np.array_equal(mul[a, b], mul[b, a])


@pytest.mark.parametrize("p,k", [(2, 6), (3, 3), (2, 1)])
def test_inverses_all_nonzero(p, k):
    f = cached_field(p, k)
    nz = np.arange(1, f.q)
    assert np.all(f.mul_table[nz, f.inv_table[nz]] == 1)
    assert np.all(f.add_table[nz, f.neg_table[nz]] == 0)


def test_mul_matches_naive_polynomial_arithmetic():
    f = cached_field(2, 6)
    rng = np.random.default_rng(3)
    mod = list(f.modulus)
    for a, b in rng.integers(0, f.q, size=(200, 2)):
        expect = _encode(_naive_poly_mul_mod(_digits(int(a), 2, 6),
                                             _digits(int(b), 2, 6), mod, 2), 2)
        assert int(f.mul_table[a, b]) == expect


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 48), st.integers(0, 48))
def test_gf49_hypothesis_ring_identities(a, b):
    f = cached_field(7, 2)
    assert f.add_table[a, b] == f.add_table[b, a]
    assert f.mul_table[a, f.add_table[b, 1]] == \
        f.add_table[f.mul_table[a, b], a]


def test_bad_parameters():
    with pytest.raises(FieldError):
        FieldSpec(4, 2)  # 4 is not prime
    with pytest.raises(FieldError):
        FieldSpec(2, 0)


def test_fields_above_8192_elements_are_refused():
    # every kernel indexes dense q x q tables; GF(2^13) is the largest field
    with pytest.raises(FieldError, match="8192"):
        FieldSpec(2, 14)
    with pytest.raises(FieldError):
        FieldSpec(8209, 1)
    # refused before p is trial-divided or p**k is formed: 2^61 - 1 is prime
    with pytest.raises(FieldError, match="8192"):
        FieldSpec(2**61 - 1, 1)
    with pytest.raises(FieldError, match="8192"):
        FieldSpec(2, 10**9)
    assert FieldSpec(2, 13).q == 8192


# -- subfield embeddings -----------------------------------------------------

@pytest.mark.parametrize("sub,sup", [((2, 1), (2, 2)), ((2, 2), (2, 6)),
                                     ((3, 1), (3, 2)), ((2, 3), (2, 6)),
                                     ((3, 2), (3, 6))])
def test_embedding_is_exhaustive_homomorphism(sub, sup):
    fs, fb = cached_field(*sub), cached_field(*sup)
    e = subfield_embed(fs, fb)
    qs = fs.q
    a = np.repeat(np.arange(qs), qs)
    b = np.tile(np.arange(qs), qs)
    assert np.array_equal(e[fs.add_table[a, b]], fb.add_table[e[a], e[b]])
    assert np.array_equal(e[fs.mul_table[a, b]], fb.mul_table[e[a], e[b]])
    assert e[0] == 0 and e[1] == 1
    assert len(np.unique(e)) == qs


def test_embedding_requires_divisible_degree():
    with pytest.raises(FieldError):
        subfield_embed(cached_field(2, 2), cached_field(2, 3))


# -- towers and blow-up matrices --------------------------------------------

@pytest.mark.parametrize("p,t,n", [(2, 1, 2), (2, 2, 3), (3, 1, 2), (3, 2, 3),
                                   (2, 3, 2)])
def test_tower_coords_reconstitute_roundtrip(p, t, n):
    tw = cached_tower(p, t, n)
    xs = np.arange(tw.sup.q)
    blocks = tw.coords(xs)
    assert blocks.shape == (tw.sup.q, n)
    back = tw.reconstitute(blocks)
    assert np.array_equal(back, xs)


@pytest.mark.parametrize("p,t,n", [(2, 2, 3), (3, 1, 3)])
def test_blowup_matrix_is_ring_homomorphism(p, t, n):
    tw = cached_tower(p, t, n)
    f = tw.sub
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, tw.sup.q, size=(1000, 2))
    for a, b in pairs:
        Ma = tw.blowup_matrix(int(a))
        Mb = tw.blowup_matrix(int(b))
        Mab = tw.blowup_matrix(int(tw.sup.mul_table[a, b]))
        Maplusb = tw.blowup_matrix(int(tw.sup.add_table[a, b]))
        # matrix product over the subfield
        prod = np.zeros_like(Ma)
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = f.add_table[acc, f.mul_table[Ma[i, k], Mb[k, j]]]
                prod[i, j] = acc
        assert np.array_equal(prod, Mab)
        assert np.array_equal(f.add_table[Ma, Mb], Maplusb)


def test_blowup_action_matches_field_multiplication():
    tw = cached_tower(2, 2, 3)
    f = tw.sub
    rng = np.random.default_rng(5)
    for a, x in rng.integers(0, tw.sup.q, size=(300, 2)):
        M = tw.blowup_matrix(int(a))
        cx = tw.coords(np.array([x]))[0]
        out = np.zeros(tw.n, dtype=np.int64)
        for i in range(tw.n):
            acc = 0
            for j in range(tw.n):
                acc = f.add_table[acc, f.mul_table[M[i, j], cx[j]]]
            out[i] = acc
        expect = tw.coords(np.array([tw.sup.mul_table[a, x]]))[0]
        assert np.array_equal(out, expect)
