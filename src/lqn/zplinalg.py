"""Exact linear algebra over the prime field Z_p.

Everything here works on integer numpy arrays and keeps all arithmetic
exact: reductions and row echelon forms. No floating point. Products of two
residues are formed in int64, so rref and ranks refuse a modulus with
(p-1)**2 >= 2**63 through check_products.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import TooLargeError


@functools.lru_cache(maxsize=64)
def is_prime(p: int) -> bool:
    """Trial-division primality test, cached: every code drawn at p tests p again."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def as_integer(p) -> int:
    """p as a Python int; any non-integer (5.5, "5") is refused."""
    try:
        return operator.index(p)
    except TypeError:
        raise ValueError(f"modulus must be an integer, got {p!r}") from None


def ensure_prime(p: int) -> int:
    """p as a Python int; any non-integer or composite is refused."""
    p = as_integer(p)
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


def check_products(p, terms: int = 1) -> int:
    """p as a Python int, refused with TooLargeError unless terms.(p-1)**2 < 2**63.

    A sum of terms products of two residues then fits int64, as every product
    in rref, ranks and the codes module must.
    """
    p = as_integer(p)
    if terms * (p - 1) ** 2 >= 1 << 63:
        raise TooLargeError(f"modulus {p} at length {terms} overflows the int64 dot products")
    return p


def mod_reduce(v, p: int) -> np.ndarray:
    """Reduce integer components into the canonical range [0, p-1] (negatives wrap up).

    An array whose dtype int64 holds exactly (int64, int32, bool) is reduced as
    int64. Any other input is read entry by entry: an integer within int64's
    range, or a float with such an integral value, is taken as that integer,
    and any other entry (1.5, nan, "3", 2**70) is refused with ValueError.
    """
    a = np.asarray(v)
    if not np.can_cast(a.dtype, np.int64):
        ints = [int(x) if isinstance(x, float) and x.is_integer() else x for x in a.flat]
        if not all(isinstance(x, (int, np.integer)) and -(2**63) <= x < 2**63 for x in ints):
            raise ValueError(f"expected integer entries within int64, got {v!r}")
        a = np.array(ints, dtype=np.int64).reshape(a.shape)
    return a.astype(np.int64, copy=False) % p


@dataclass(frozen=True)
class RrefResult:
    matrix: np.ndarray
    rank: int
    pivot_cols: tuple[int, ...]


def rref(m, p: int) -> RrefResult:
    """Reduced row echelon form over Z_p.

    Pivots are scaled to 1 and cleared above and below, columns scanned left
    to right. Returns the canonical form, its rank, and the pivot columns.
    """
    p = check_products(p)
    a = mod_reduce(np.atleast_2d(m), p)
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        # a swap of row r with itself leaves it as it is
        a[[r, r + hits[0]]] = a[[r + hits[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
    a.setflags(write=False)
    return RrefResult(a, len(pivots), tuple(pivots))


def ranks(stack, p: int) -> np.ndarray:
    """Row rank over Z_p of each matrix in a (count, k, n) stack.

    Fraction-free elimination, one column at a time for the whole stack: in
    each matrix the first row not yet a pivot with a nonzero entry c in the
    column becomes a pivot row P (c = 1 where the column has none). Every row
    is multiplied by c, and a row R not yet a pivot becomes c.R - R_col.P
    instead, mod p: that clears the column outside the pivot rows and keeps
    the row space, since c is a unit. The rank is the number of pivot rows.
    Entries are taken as mod_reduce takes them; values stay below p**2, so
    like rref this refuses p with check_products.
    """
    p = check_products(p)
    a = mod_reduce(stack, p)
    free = np.ones(a.shape[:2], dtype=bool)
    at, q = np.arange(len(a)), np.empty_like(a)
    for c in range(a.shape[2]):
        col = a[:, :, c] * free
        row = (col != 0).argmax(axis=1)
        pivot, prow = col[at, row], a[at, row]
        free[at, row] &= pivot == 0
        a *= np.maximum(pivot, 1)[:, None, None]
        # q holds the product, then a // p * p: a becomes a % p, with no % and no new
        # temporary; |a // p * p| <= p(p-1) < 2**63 for every p check_products takes
        a -= np.multiply((col * free)[:, :, None], prow[:, None], out=q)
        a -= np.multiply(np.floor_divide(a, p, out=q), p, out=q)
    return (~free).sum(axis=1)
