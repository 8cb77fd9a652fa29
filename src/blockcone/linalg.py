"""Row-echelon linear algebra over a FieldSpec, on integer-encoded matrices.

Matrices are numpy int64 arrays of field-element encodings.  Everything here
is table-driven and deterministic; RREF output is the canonical representative
used for subspace equality throughout the package.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldSpec


def rref(mat: np.ndarray, field: FieldSpec):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_columns);
    zero rows are dropped."""
    A = np.array(mat, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("matrix expected")
    add, mul = field.add_table, field.mul_table
    neg, inv = field.neg_table, field.inv_table
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = mul[inv[A[r, c]], A[r]]
        for rr in range(rows):
            if rr != r and A[rr, c]:
                A[rr] = add[A[rr], mul[neg[A[rr, c]], A[r]]]
        pivots.append(c)
        r += 1
    return A[:r], tuple(pivots)


def kernel_basis(mat: np.ndarray, field: FieldSpec) -> np.ndarray:
    """RREF basis of {x : mat @ x = 0}."""
    A, pivots = rref(mat, field)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    neg = field.neg_table
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = neg[A[r, fc]]
    B, _ = rref(basis, field)
    return B


def matmul(A: np.ndarray, B: np.ndarray, field: FieldSpec) -> np.ndarray:
    """(N, k) @ (k, m) over the field, the package's one GF(q) sum of
    products: incidence, membership and linear forms are all this.  The sum
    starts from the first product, one table gather per term; k = 0 gives
    int64 zeros."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    add, mul = field.add_table, field.mul_table
    if A.shape[-1] == 0:
        return np.zeros(A.shape[:-1] + (B.shape[1],), dtype=np.int64)
    out = mul[A[..., :1], B[0][None, :]]
    for j in range(1, A.shape[-1]):
        out = add[out, mul[A[..., j : j + 1], B[j][None, :]]]
    return out


def reduce_in_row_space(rref_mat: np.ndarray, pivots, vec: np.ndarray,
                        field: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(c, remainder) with c @ rref_mat + remainder = vec, the remainder
    zero on every pivot column; vec lies in the row space iff it is zero."""
    v = np.array(vec, dtype=np.int64)
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    coeff = np.zeros(rref_mat.shape[0], dtype=np.int64)
    for r, pc in enumerate(pivots):
        if v[pc]:
            coeff[r] = v[pc]
            v = add[v, mul[neg[v[pc]], rref_mat[r]]]
    return coeff, v


def meet_row_spaces(A: np.ndarray, B: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Zassenhaus: RREF basis of the intersection of two row spaces."""
    ra, ca = A.shape
    rb, _ = B.shape
    blk = np.zeros((ra + rb, 2 * ca), dtype=np.int64)
    blk[:ra, :ca] = A
    blk[:ra, ca:] = A
    blk[ra:, :ca] = B
    R, _ = rref(blk, field)
    left_zero = ~R[:, :ca].any(axis=1)
    inter = R[left_zero][:, ca:]
    if inter.size == 0:
        return np.zeros((0, ca), dtype=np.int64)
    M, _ = rref(inter, field)
    return M
