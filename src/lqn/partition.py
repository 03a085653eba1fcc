"""Coset-representative cells and the lattice quantizer.

A region is one representative per coset of the code inside Z_p^n, indexed
by syndrome. Two selection rules are provided. The typicality rule takes the
lexicographically smallest typical member of each coset when one exists and
the lexicographically smallest member otherwise; preferring a typical member
whenever there is one makes the result canonical and never increases the
count of bad cosets. The maximum-likelihood rule takes the member with the
largest product mass under the target, ties broken lexicographically.

Both rules read one table of log2-likelihoods over all of Z_p^n, computed
once per (target, n) by log2_likelihoods itself and kept for the next code,
so float ties break exactly as a pass over member vectors would. With the
code in systematic form, the member of coset s with pivot part u has free
part s + u.A, where A = (-H[:, pivots])^T mod p comes from the parity check
H. The lexicographic encodings of all members form one (p^k, p^(n-k))
array, message by syndrome; the table is gathered through it once and each
rule reduces over the message axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .codes import MAX_POINTS, LinearCode, check_cap, lex_grid
from .distributions import DiscreteTarget, TypicalityParams, log2_likelihoods, typical
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


@functools.lru_cache(maxsize=1)
def _likelihood_table(target: DiscreteTarget, n: int) -> np.ndarray:
    """log2 P(x) for every x in Z_p^n, indexed by lexicographic encoding.

    Computed by log2_likelihoods in blocks over the fewest leading coordinates
    with p**lead >= n, so no block outgrows the table. Targets hash by identity.
    """
    p = target.p
    lead = next(j for j in range(1, n + 1) if p**j >= n)
    tail = lex_grid(p, n - lead)
    block = np.empty((tail.shape[0], n), dtype=np.int64)
    block[:, lead:] = tail
    table = np.empty((p**lead, tail.shape[0]))
    for i, head in enumerate(np.ndindex((p,) * lead)):
        block[:, :lead] = head
        table[i] = log2_likelihoods(block, target)
    table = table.ravel()
    table.setflags(write=False)
    return table


def _member_encodings(code: LinearCode, pows: np.ndarray) -> np.ndarray:
    """Lexicographic encoding of every point, message by syndrome.

    Entry (u, s) is the member of coset s whose pivot coordinates are u; its
    free coordinates are s + u.A mod p with A = (-H[:, pivots])^T.
    """
    p, k = code.p, code.k
    piv = list(code.pivot_cols)
    msgs = lex_grid(p, k)
    shift = msgs @ (-code.parity[:, piv].T % p) % p
    enc = (msgs @ pows[piv])[:, None]
    for i, c in enumerate(code.nonpivot_cols):
        digit = (np.arange(p) + shift[:, i, None]) % p
        enc = (enc[:, :, None] + digit[:, None, :] * pows[c]).reshape(p**k, -1)
    return enc


def choose(
    code: LinearCode,
    target: DiscreteTarget,
    criterion: str,
    epsilon: float,
    max_points: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each coset's chosen member encoding and its log2-likelihood, by syndrome.

    The one home of both rules: "ml" is maximum likelihood, "typicality" the
    typicality rule, anything else a ValueError; ties go to the smallest, i.e.
    lexicographically first.
    """
    if criterion not in ("ml", "typicality"):
        raise ValueError(f"unknown criterion {criterion!r}")
    total = code.p**code.n
    check_cap(total, max_points, MAX_POINTS, "points")
    if target.p != code.p:
        raise ValueError("target modulus differs from code modulus")
    n = code.n
    table = _likelihood_table(target, n)
    enc = _member_encodings(code, code.p ** np.arange(n - 1, -1, -1, dtype=np.int64))
    ll = table[enc]
    if criterion == "ml":
        mask = ll == ll.max(axis=0)
    else:
        mask = typical(ll, n, target, epsilon)
        # a coset with no typical member falls back to all of its members
        mask |= ~mask.any(axis=0)
    pick = enc.min(axis=0, where=mask, initial=total)
    return pick, table[pick]


def region_of(
    code: LinearCode, target: DiscreteTarget, criterion: str, epsilon: float, pick: np.ndarray
) -> FundamentalRegion:
    """The region whose representatives are the encodings choose picked."""
    reps = np.column_stack(np.unravel_index(pick, (code.p,) * code.n))
    good = typical(_likelihood_table(target, code.n)[pick], code.n, target, epsilon)
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
    pick, _ = choose(code, target, criterion, tp.epsilon, max_points)
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
