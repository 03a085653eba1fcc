"""Coset-representative cells and the lattice quantizer.

A region is one representative per coset of the code inside Z_p^n, indexed
by syndrome. Two selection rules are provided. The typicality rule takes the
lexicographically smallest typical member of each coset when one exists and
the lexicographically smallest member otherwise; preferring a typical member
whenever there is one makes the result canonical and never increases the
count of bad cosets. The maximum-likelihood rule takes the member with the
largest product mass under the target, ties broken lexicographically.

With the code in systematic form, the member of coset s with pivot part u
has free part s + u.A, where A = (-H[:, pivots])^T mod p comes from the
parity check H. A codeword's first nonzero coordinate is the pivot of its
message's first nonzero digit, so within a coset the members are in
lexicographic order exactly when their pivot parts are, and the first
qualifying message breaks ties as a pass over member vectors would. The
log2-likelihoods of all members form one (p^k, p^(n-k)) array, message by
syndrome, summed coordinate by coordinate in the order log2_likelihoods
uses, so both agree bit for bit; region_of flags typicality from a pick's sums.

Selection is whole-array: the typicality rule compares the sums with the
interval typical_interval derives from typical, and both rules find each
syndrome's first qualifying message with first_hit, a max-reduce over the
message axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import MAX_POINTS, LinearCode, check_cap, lex_grid
from .distributions import DiscreteTarget, TypicalityParams, typical, typical_interval
from .errors import DimensionMismatchError
from .zplinalg import mod_reduce


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


def _members(code: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """Every message u, in lexicographic order, and its free-part shift u.A mod p."""
    p = code.p
    msgs = lex_grid(p, code.k)
    return msgs, msgs @ (-code.parity[:, list(code.pivot_cols)].T % p) % p


def choose(
    code: LinearCode,
    target: DiscreteTarget,
    criterion: str,
    epsilon: float,
    max_points: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each coset's chosen message row and its member's log2-likelihood, by syndrome.

    The one home of both rules: "ml" is maximum likelihood, "typicality" the
    typicality rule, anything else a ValueError; ties go to the first message,
    i.e. the lexicographically first member.
    """
    if criterion not in ("ml", "typicality"):
        raise ValueError(f"unknown criterion {criterion!r}")
    p = code.p
    check_cap(p**code.n, max_points, MAX_POINTS, "points")
    if target.p != p:
        raise ValueError("target modulus differs from code modulus")
    msgs, shift = _members(code)
    logp = target.log2_probs
    rows = p**code.k
    # the last free coordinate writes into sums, allocated first so that a
    # size that cannot be held fails at once
    sums = np.empty((rows, p ** (code.n - code.k)))
    ll = np.zeros((rows, 1))
    piv, free = code.pivot_cols, code.nonpivot_cols
    for j in range(code.n):
        if j in piv:
            ll += logp[msgs[:, piv.index(j)], None]
        else:
            digit = logp[(np.arange(p) + shift[:, free.index(j), None]) % p]
            grown = sums.reshape(rows, -1, p) if j == free[-1] else None
            ll = np.add(ll[:, :, None], digit[:, None, :], out=grown).reshape(rows, -1)
    if criterion == "ml":
        row = first_hit(ll == ll.max(axis=0))
    else:
        # a coset with no typical member falls back to its first member
        lo, hi = typical_interval(code.n, target, epsilon)
        row = first_hit((ll >= lo) & (ll <= hi))
    return row, ll[row, np.arange(ll.shape[1])]


def first_hit(hits: np.ndarray) -> np.ndarray:
    """Each column's first True row, or 0 for a column with none.

    Rows get descending weights rows..1 in the smallest unsigned dtype that
    holds them, and a max over axis 0 finds the first hit's weight: numpy
    reduces axis 0 row after row, where argmax(axis=0) walks strided columns.
    """
    rows = hits.shape[0]
    weights = np.arange(rows, 0, -1, dtype=np.min_scalar_type(rows))
    best = (hits * weights[:, None]).max(axis=0)
    # best = rows - row for a hit; 0 (no hit) maps to row 0
    return (rows - best.astype(np.int64)) % rows


def region_of(
    code: LinearCode, target: DiscreteTarget, criterion: str, epsilon: float, pick: tuple
) -> FundamentalRegion:
    """The region of the members choose picked, flagged from the sums it returned."""
    row, ll = pick
    msgs, shift = _members(code)
    reps = np.empty((code.num_cosets, code.n), dtype=np.int64)
    reps[:, list(code.pivot_cols)] = msgs[row]
    reps[:, list(code.nonpivot_cols)] = (lex_grid(code.p, code.n - code.k) + shift[row]) % code.p
    good = typical(ll, code.n, target, epsilon)
    reps.setflags(write=False)
    good.setflags(write=False)
    return FundamentalRegion(code, reps, good, criterion, epsilon)


def build_region(
    code: LinearCode,
    target: DiscreteTarget,
    criterion: str,
    *,
    tp: TypicalityParams | None = None,
    max_points: int | None = None,
) -> FundamentalRegion:
    """Select each coset's representative by criterion and build the region."""
    tp = TypicalityParams.default(code.n) if tp is None else tp
    if tp.n != code.n:
        raise DimensionMismatchError(f"typicality block length {tp.n} != code length {code.n}")
    pick = choose(code, target, criterion, tp.epsilon, max_points)
    return region_of(code, target, criterion, tp.epsilon, pick)


def build_ml_partition(code, target, *, tp=None, max_points=None) -> FundamentalRegion:
    """Most likely member of each coset; flags still report typicality."""
    return build_region(code, target, "ml", tp=tp, max_points=max_points)


def build_typicality_partition(code, target, *, tp=None, max_points=None) -> FundamentalRegion:
    """Lexicographically smallest typical member, falling back to smallest."""
    return build_region(code, target, "typicality", tp=tp, max_points=max_points)


@dataclass(frozen=True, eq=False)
class QuantizationResult:
    lattice_point: np.ndarray
    remainder: np.ndarray


def quantize(region: FundamentalRegion, y) -> QuantizationResult:
    """Split an integer vector as lattice point plus in-cell remainder.

    Entries must be integers within int64's range, as mod_reduce takes them.
    """
    residue = mod_reduce(y, region.code.p)
    if residue.ndim != 1 or residue.size != region.code.n:
        raise ValueError(f"expected a length-{region.code.n} vector")
    rep = region.reps[coset_id(region.code, residue)]
    # mod_reduce accepted y, so its entries are integers that int64 holds exactly
    return QuantizationResult(np.asarray(y, dtype=np.int64) - rep, rep.copy())


@dataclass(frozen=True)
class RegionCheck:
    ok: bool
    failure: str | None
    counterexample: tuple | None


def validate_region(region: FundamentalRegion) -> RegionCheck:
    """Exactly one representative per coset, hence an exact translate tiling.

    Checks the cell size p**(n-k) and that representative i lies in coset i.
    A representative's codeword translates fill exactly its own coset, so the
    two checks already prove that the cell's translates cover Z_p^n once.
    """
    code = region.code
    expected = code.num_cosets
    if region.reps.shape != (expected, code.n):
        return RegionCheck(False, "cell size", (region.reps.shape, expected))
    ids = coset_ids(code, region.reps)
    wrong = np.nonzero(ids != np.arange(expected))[0]
    if wrong.size:
        i = int(wrong[0])
        return RegionCheck(False, "representative in wrong coset", (i, tuple(region.reps[i])))
    return RegionCheck(True, None, None)
