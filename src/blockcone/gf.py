"""Exact arithmetic in GF(p^k), subfield towers and blow-up of extension scalars.

Elements are encoded as integers in [0, p^k): the base-p digits of the
encoding are the coefficients of the residue polynomial, digit i being the
coefficient of x^i.  The encoding order doubles as the total order used for
every "least element" tie-break elsewhere in the package.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

# Every kernel indexes the dense q x q tables, so larger fields are refused.
_MAX_ORDER = 1 << 13


class FieldError(ValueError):
    pass


def _digit_rows(count: int, base: int, width: int) -> np.ndarray:
    """(count, width) int64 base-`base` digits of 0..count-1, least
    significant first."""
    n = np.arange(count, dtype=np.int64)
    return np.stack([n // base**i % base for i in range(width)], axis=1)


def _digits(n: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); polys are little-endian coefficient tuples


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    lb_inv = pow(lb, p - 2, p)
    for i in range(len(a) - 1, db - 1, -1):
        f = a[i] * lb_inv % p
        if f:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
    return _poly_trim(a[:db])


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def poly_is_irreducible(modulus, p: int) -> bool:
    """Trial division against every monic polynomial of degree <= deg/2."""
    modulus = _poly_trim(modulus)
    k = len(modulus) - 1
    if k < 1 or modulus[-1] != 1:
        return False
    if k == 1:
        return True
    if modulus[0] == 0:  # divisible by x
        return False
    for d in range(1, k // 2 + 1):
        for low in range(p**d):
            div = _digits(low, p, d) + (1,)
            if not _poly_mod(modulus, div, p):
                return False
    return True


def least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over GF(p) with least low-part encoding."""
    if k == 1:
        return (0, 1)
    for low in range(p**k):
        cand = _digits(low, p, k) + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------


class FieldSpec:
    """GF(p^k) with an explicit monic irreducible modulus.

    Immutable.  Elements are operated on only through the dense
    add/neg/mul/inv numpy tables, built on first use; fields of more than
    8192 elements are refused.
    """

    def __init__(self, p: int, k: int, modulus=None):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if k < 1:
            raise FieldError("degree must be >= 1")
        if p**k > _MAX_ORDER:
            raise FieldError(f"GF({p}^{k}) has more than {_MAX_ORDER} "
                             f"elements, too many for dense tables")
        if modulus is None:
            modulus = least_irreducible(p, k)
        else:
            modulus = _poly_trim(modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree k")
            if not poly_is_irreducible(modulus, p):
                raise FieldError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def manifest(self) -> str:
        """Header form: `p k c0 c1 ... ck`."""
        return " ".join(map(str, (self.p, self.k) + self.modulus))

    # -- table construction ------------------------------------------------

    @cached_property
    def _tables(self) -> dict:
        p, k, q = self.p, self.k, self.q
        digs = _digit_rows(q, p, k)
        pw = p ** np.arange(k)

        add = np.zeros((q, q), dtype=np.int32)
        for i in range(k):
            add += ((digs[:, None, i] + digs[None, :, i]) % p) * pw[i]
        neg = ((-digs) % p) @ pw

        # multiply-by-x map, then mul via digit expansion of one factor
        shifted = np.zeros((q, k), dtype=np.int64)
        shifted[:, 1:] = digs[:, :-1]
        carry = digs[:, -1]
        mod_low = np.array(self.modulus[:k])
        shifted = (shifted - carry[:, None] * mod_low[None, :]) % p
        mulx = shifted @ pw

        smul = np.zeros((p, q), dtype=np.int64)  # prime-scalar times element
        for d in range(p):
            smul[d] = ((digs * d) % p) @ pw

        mul = np.zeros((q, q), dtype=np.int32)
        col = np.arange(q)  # encodings of a * x^j for all a
        for j in range(k):
            term = smul[digs[:, j]][:, col]  # [b, a]
            mul = add[mul, term.T.astype(np.int32)]
            col = mulx[col]

        inv = np.zeros(q, dtype=np.int32)
        nz = mul[1:, :] == 1
        inv[1:] = np.argmax(nz, axis=1)

        return {
            "add": add.astype(np.int32),
            "neg": neg.astype(np.int32),
            "mul": mul,
            "inv": inv,
        }

    @property
    def add_table(self) -> np.ndarray:
        return self._tables["add"]

    @property
    def mul_table(self) -> np.ndarray:
        return self._tables["mul"]

    @property
    def neg_table(self) -> np.ndarray:
        return self._tables["neg"]

    @property
    def inv_table(self) -> np.ndarray:
        return self._tables["inv"]


# ---------------------------------------------------------------------------


def subfield_embed(sub: FieldSpec, sup: FieldSpec) -> np.ndarray:
    """Image table of the field homomorphism GF(p^t) -> GF(p^k), t | k: the
    image of sub's generator is the least root (in encoding order) of sub's
    modulus inside sup."""
    if sub.p != sup.p or sup.k % sub.k != 0:
        raise FieldError(f"no embedding of {sub} into {sup}")
    if sub.k == 1:
        return np.arange(sub.q, dtype=np.int64)
    add, mul = sup.add_table, sup.mul_table
    xs = np.arange(sup.q)
    val = np.zeros(sup.q, dtype=np.int64)
    for c in reversed(sub.modulus):  # Horner's rule at every element at once
        val = add[mul[val, xs], c]
    roots = np.flatnonzero(val == 0)
    if not roots.size:
        raise FieldError("modulus has no root in the extension (impossible)")
    powers = [1]
    for _ in range(1, sub.k):
        powers.append(int(mul[powers[-1], roots[0]]))
    table = np.zeros(sub.q, dtype=np.int64)
    for digit, pw in zip(_digit_rows(sub.q, sub.p, sub.k).T, powers):
        table = add[table, mul[digit, pw]]
    table = table.astype(np.int64)
    _validate_embedding(sub, sup, table)
    return table


def _validate_embedding(sub: FieldSpec, sup: FieldSpec, t: np.ndarray):
    if np.bincount(t).max() != 1:
        raise FieldError("embedding not injective")
    if t[0] != 0 or t[1] != 1:
        raise FieldError("embedding does not fix 0 and 1")
    # exhaustive homomorphism check for small subfields, sampled otherwise
    if sub.q <= 256:
        idx = np.arange(sub.q)
        a, b = np.meshgrid(idx, idx, indexing="ij")
    else:
        rng = np.random.default_rng(0)
        a = rng.integers(0, sub.q, size=4096)
        b = rng.integers(0, sub.q, size=4096)
    ta, tb = t[a], t[b]
    if not np.array_equal(t[sub.add_table[a, b]], sup.add_table[ta, tb]):
        raise FieldError("embedding does not preserve addition")
    if not np.array_equal(t[sub.mul_table[a, b]], sup.mul_table[ta, tb]):
        raise FieldError("embedding does not preserve multiplication")


# ---------------------------------------------------------------------------


class FieldTower:
    """GF(q1) inside GF(q1^n) with coordinate maps for field reduction.

    Fixes the power basis {1, g, ..., g^(n-1)} of the big field's generator
    g (the class of x, encoding p) as plain ints in `basis`, and tabulates
    the reconstitution rec_tables[j][c] = e(c) * b_j together with its
    inverse, the decomposition big-element -> n small-field coordinates.
    """

    def __init__(self, sub: FieldSpec, sup: FieldSpec):
        if sup.k % sub.k != 0 or sub.p != sup.p:
            raise FieldError(f"{sup} is not an extension of {sub}")
        self.sub = sub
        self.sup = sup
        self.n = sup.k // sub.k
        self.embedding = subfield_embed(sub, sup)
        g = sup.p if sup.k > 1 else 1
        els = [1]
        for _ in range(1, self.n):
            els.append(int(sup.mul_table[els[-1], g]))
        self.basis = tuple(els)
        self.rec_tables = sup.mul_table[self.embedding[None, :],
                                        np.array(els)[:, None]].astype(np.int64)

        # the q1^n coordinate rows reconstitute to distinct elements iff the
        # basis is one over the subfield; coords_table inverts that bijection
        rows = _digit_rows(sup.q, sub.q, self.n)
        image = self.reconstitute(rows)
        if not np.bincount(image, minlength=sup.q).all():
            raise FieldError("tower basis is not a basis over the subfield")
        self.coords_table = np.empty_like(rows)
        self.coords_table[image] = rows

    def coords(self, a) -> np.ndarray:
        """Big-field element(s) -> (n,) / (N, n) small-field coordinates."""
        return self.coords_table[a]

    def reconstitute(self, c) -> np.ndarray:
        """Small-field coordinate rows -> big-field element(s)."""
        c = np.asarray(c)
        acc = self.rec_tables[0][c[..., 0]]
        add = self.sup.add_table
        for j in range(1, self.n):
            acc = add[acc, self.rec_tables[j][c[..., j]]]
        return acc

    def blowup_matrix(self, a: int) -> np.ndarray:
        """n x n matrix over the small field of multiplication by a, i.e.
        coords(a*y) = M @ coords(y) for every big-field y."""
        if not 0 <= a < self.sup.q:
            raise FieldError(f"{a} is not an element of {self.sup}")
        return self.coords(self.sup.mul_table[a, list(self.basis)]).T


@lru_cache(maxsize=None)
def cached_field(p: int, k: int) -> FieldSpec:
    return FieldSpec(p, k)


@lru_cache(maxsize=None)
def cached_tower(p: int, t: int, n: int) -> FieldTower:
    return FieldTower(cached_field(p, t), cached_field(p, t * n))
