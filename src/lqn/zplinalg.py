"""Exact linear algebra over the prime field Z_p.

Everything here works on integer numpy arrays and keeps all arithmetic
exact: reductions and row echelon forms. No floating point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


def is_prime(p: int) -> bool:
    """Trial-division primality test."""
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


def mod_reduce(v, p: int) -> np.ndarray:
    """Reduce components into the canonical range [0, p-1] (negatives wrap up)."""
    return np.asarray(v, dtype=np.int64) % p


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
    a = mod_reduce(np.atleast_2d(m), p)
    rows, cols = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
    a.setflags(write=False)
    return RrefResult(a, r, tuple(pivots))
