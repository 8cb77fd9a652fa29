"""Independent arithmetic for the benchmark's correctness checks.

Nothing here imports blockcone.  A field is rebuilt from the modulus a
blockcone manifest records (`p k c0 ... ck`), by a different method than the
package uses: multiplication comes from discrete logarithms of a primitive
element found by brute force, addition from base-p digits.  Points of PG(m, q)
are unranked by the package's documented convention only: canonical vectors
(leftmost nonzero coordinate 1) numbered in lexicographic order of their
coordinate encodings.
"""

from __future__ import annotations

import numpy as np


def _polymul(a, b, low, p):
    """Product of two digit lists modulo the monic modulus x^k + low(x)."""
    k = len(low)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i, m in enumerate(low):
                prod[d - k + i] = (prod[d - k + i] - c * m) % p
    return prod[:k]


class Field:
    """GF(p^k); the element sum d_i p^i stands for the polynomial sum d_i x^i."""

    def __init__(self, manifest: str):
        nums = [int(x) for x in manifest.split()]
        p, k, coeffs = nums[0], nums[1], nums[2:]
        if len(coeffs) != k + 1 or coeffs[-1] != 1:
            raise ValueError(f"bad field manifest {manifest!r}")
        self.p, self.k, self.q = p, k, p**k
        q, low = self.q, coeffs[:k]
        # tables are built one digit at a time in int32, so that GF(729)
        # costs a few MB and the oracle does not dominate a run's peak RSS
        digits = np.array([[(a // p**i) % p for i in range(k)]
                           for a in range(q)], dtype=np.int32)
        self.add = np.zeros((q, q), dtype=np.int32)
        for i in range(k):
            d = digits[:, i]
            self.add += (d[:, None] + d[None, :]) % p * p**i
        pw = [p**i for i in range(k)]

        def encode(d):
            return sum(int(x) * w for x, w in zip(d, pw))

        for g in range(1, q):
            powers = [1]
            cur = list(digits[g])
            while encode(cur) != 1:
                powers.append(encode(cur))
                cur = _polymul(cur, list(digits[g]), low, p)
            if len(powers) == q - 1:
                break
        else:
            raise ValueError(f"no primitive element for {manifest!r}")
        exp = np.array(powers, dtype=np.int32)
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(q - 1, dtype=np.int32)
        s = log[:, None] + log[None, :]
        s %= q - 1
        self.mul = exp[s]
        del s
        self.mul[0, :] = 0
        self.mul[:, 0] = 0

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bilinear form sum a_i b_i over the last axis, with broadcasting."""
        acc = self.mul[a[..., 0], b[..., 0]]
        for i in range(1, a.shape[-1]):
            acc = self.add[acc, self.mul[a[..., i], b[..., i]]]
        return acc


def n_points(q: int, m: int) -> int:
    return (q ** (m + 1) - 1) // (q - 1)


def unrank(q: int, m: int, ranks) -> np.ndarray:
    """Canonical vectors of PG(m, q) with the given lexicographic ranks.

    Vectors whose leading 1 sits further right come first; within one pivot
    position the tail is a base-q numeral, most significant digit first."""
    r = np.asarray(ranks, dtype=np.int64)
    if r.size and (r.min() < 0 or r.max() >= n_points(q, m)):
        raise ValueError("rank out of range")
    out = np.zeros((r.size, m + 1), dtype=np.int64)
    offset = 0
    for j in range(m, -1, -1):
        size = q ** (m - j)
        sel = np.flatnonzero((r >= offset) & (r < offset + size))
        rest = r[sel] - offset
        out[sel, j] = 1
        for pos in range(m, j, -1):
            out[sel, pos] = rest % q
            rest = rest // q
        offset += size
    return out


def incidence(field: Field, hyps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Boolean (hyperplanes x points) incidence matrix."""
    return field.dot(hyps[:, None, :], pts[None, :, :]) == 0
