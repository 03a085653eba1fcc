"""Coset-representative cells and the lattice quantizer.

A region is one representative per coset of the code inside Z_p^n, indexed
by syndrome. Two selection rules are provided. The typicality rule takes the
lexicographically smallest typical member of each coset when one exists and
the lexicographically smallest member otherwise; preferring a typical member
whenever there is one makes the result canonical and never increases the
count of bad cosets. The maximum-likelihood rule takes the member with the
largest product mass under the target, ties broken lexicographically.

Cosets are processed in blocks of the vectorized member table; the outcome
is identical to a sequential pass in syndrome order because each coset's
choice depends only on its own members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import MAX_POINTS, LinearCode, enumerate_codewords
from .distributions import DiscreteTarget, TypicalityParams, log2_likelihoods
from .errors import TooLargeError
from .zplinalg import mod_reduce

_BLOCK_ELEMS = 1 << 21


@dataclass(frozen=True, eq=False)
class FundamentalRegion:
    """One representative per coset, plus per-coset typicality flags."""

    code: LinearCode
    reps: np.ndarray
    good_flags: np.ndarray
    criterion: str
    epsilon: float

    @property
    def size(self) -> int:
        return self.reps.shape[0]

    @property
    def bad_count(self) -> int:
        return int((~self.good_flags).sum())


def coset_id(code: LinearCode, y) -> int:
    """Index in [0, p**(n-k)) for the coset of y; constant on cosets.

    The index is the syndrome vector read as base-p digits, most significant
    first.
    """
    return int(coset_ids(code, mod_reduce(y, code.p)[None, :])[0])


def coset_ids(code: LinearCode, ys) -> np.ndarray:
    """Vectorized coset_id over rows."""
    s = mod_reduce(ys, code.p) @ code.parity.T % code.p
    m = code.n - code.k
    pows = code.p ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return s @ pows


def _coset_bases(code: LinearCode) -> np.ndarray:
    """One member per coset in syndrome order: zeros on the pivot columns,
    the syndrome digits on the free columns."""
    m = code.n - code.k
    digits = np.stack(
        np.unravel_index(np.arange(code.num_cosets), (code.p,) * m), axis=1
    ).astype(np.int64)
    base = np.zeros((code.num_cosets, code.n), dtype=np.int64)
    base[:, list(code.nonpivot_cols)] = digits
    return base


def _build(
    code: LinearCode,
    target: DiscreteTarget,
    criterion: str,
    tp: TypicalityParams,
    max_points: int | None,
) -> FundamentalRegion:
    cap = MAX_POINTS if max_points is None else int(max_points)
    total = code.p**code.n
    if total > cap:
        raise TooLargeError(f"{total} points exceed the cap {cap}")
    if target.p != code.p:
        raise ValueError("target modulus differs from code modulus")
    p, n = code.p, code.n
    words = enumerate_codewords(code)
    bases = _coset_bases(code)
    m = words.shape[0]
    enc_pows = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    h_bits = target.entropy_bits
    eps = tp.epsilon
    reps = np.empty((code.num_cosets, n), dtype=np.int64)
    good = np.empty(code.num_cosets, dtype=bool)
    sentinel = np.iinfo(np.int64).max
    rows = max(1, _BLOCK_ELEMS // m)
    for a in range(0, code.num_cosets, rows):
        b = min(a + rows, code.num_cosets)
        members = (bases[a:b, None, :] + words[None, :, :]) % p
        ll = log2_likelihoods(members, target)
        enc = members @ enc_pows
        if criterion == "ml":
            top = ll.max(axis=1, keepdims=True)
            pick = np.where(ll == top, enc, sentinel).argmin(axis=1)
        else:
            ok = np.abs(-ll / n - h_bits) <= eps
            pick = np.where(ok, enc, sentinel).argmin(axis=1)
            miss = ~ok.any(axis=1)
            if miss.any():
                pick[miss] = enc[miss].argmin(axis=1)
        sel = np.arange(b - a)
        reps[a:b] = members[sel, pick]
        good[a:b] = np.abs(-ll[sel, pick] / n - h_bits) <= eps
    reps.setflags(write=False)
    good.setflags(write=False)
    return FundamentalRegion(code, reps, good, criterion, eps)


def build_ml_partition(
    code: LinearCode,
    target: DiscreteTarget,
    *,
    tp: TypicalityParams | None = None,
    max_points: int | None = None,
) -> FundamentalRegion:
    """Most likely member of each coset; flags still report typicality."""
    tp = TypicalityParams.default(code.n) if tp is None else tp
    return _build(code, target, "ml", tp, max_points)


def build_typicality_partition(
    code: LinearCode,
    target: DiscreteTarget,
    *,
    tp: TypicalityParams | None = None,
    max_points: int | None = None,
) -> FundamentalRegion:
    """Lexicographically smallest typical member, falling back to smallest."""
    tp = TypicalityParams.default(code.n) if tp is None else tp
    return _build(code, target, "typicality", tp, max_points)


@dataclass(frozen=True, eq=False)
class QuantizationResult:
    lattice_point: np.ndarray
    remainder: np.ndarray


def quantize(region: FundamentalRegion, y) -> QuantizationResult:
    """Split an integer vector as lattice point plus in-cell remainder."""
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or y.size != region.code.n:
        raise ValueError(f"expected a length-{region.code.n} vector")
    rep = region.reps[coset_id(region.code, y % region.code.p)]
    return QuantizationResult(lattice_point=y - rep, remainder=rep.copy())


@dataclass(frozen=True)
class RegionCheck:
    ok: bool
    failure: str | None
    counterexample: tuple | None


def validate_region(
    region: FundamentalRegion, *, max_points: int | None = None
) -> RegionCheck:
    """Exactly one representative per coset and an exact translate tiling.

    Walks every translate of the cell by a codeword and counts how often each
    point of Z_p^n is hit; the cell tiles iff every count is one. Also checks
    the cell size p**(n-k) and that representative i really lies in coset i.
    """
    code = region.code
    cap = MAX_POINTS if max_points is None else int(max_points)
    total = code.p**code.n
    if total > cap:
        raise TooLargeError(f"{total} points exceed the cap {cap}")
    expected = code.num_cosets
    if region.reps.shape != (expected, code.n):
        return RegionCheck(False, "cell size", (region.reps.shape, expected))
    ids = coset_ids(code, region.reps)
    wrong = np.nonzero(ids != np.arange(expected))[0]
    if wrong.size:
        i = int(wrong[0])
        return RegionCheck(False, "representative in wrong coset", (i, tuple(region.reps[i])))
    words = enumerate_codewords(code)
    enc_pows = code.p ** np.arange(code.n - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(total, dtype=np.int32)
    rows = max(1, _BLOCK_ELEMS // words.shape[0])
    for a in range(0, expected, rows):
        b = min(a + rows, expected)
        trans = (region.reps[a:b, None, :] + words[None, :, :]) % code.p
        np.add.at(counts, (trans @ enc_pows).ravel(), 1)
    dup = np.nonzero(counts > 1)[0]
    if dup.size:
        point = np.unravel_index(int(dup[0]), (code.p,) * code.n)
        return RegionCheck(False, "point covered more than once", tuple(int(c) for c in point))
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        point = np.unravel_index(int(missing[0]), (code.p,) * code.n)
        return RegionCheck(False, "point not covered", tuple(int(c) for c in point))
    return RegionCheck(True, None, None)
