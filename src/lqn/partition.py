"""Coset-representative cells and the lattice quantizer.

A region is one representative per coset of the code inside Z_p^n, indexed
by syndrome. Two selection rules are provided. The typicality rule takes the
lexicographically smallest typical member of each coset when one exists and
the lexicographically smallest member otherwise; preferring a typical member
whenever there is one makes the result canonical and never increases the
count of bad cosets. The maximum-likelihood rule takes the member with the
largest product mass under the target, ties broken lexicographically.

Every member comes from one member table, _members(code): row j holds
coordinate j of each message's coset-0 member, the systematic codeword u.R
mod p, whose pivot part is the message u and whose free part is its shift
u.A, where A = (-H[:, pivots])^T mod p comes from the parity check H. The
member of coset s with message u is that column plus s at the free
coordinates. A codeword's first nonzero coordinate is the pivot of its
message's first nonzero digit, so within a coset the members are in
lexicographic order exactly when their messages are, and the first
qualifying message breaks ties as a pass over member vectors would. Each
member's log2-likelihood is summed coordinate by coordinate from zeros, in
the order of distributions.row_sums (which adds the pivots before the first
free coordinate), so it agrees bit for bit with log2_likelihoods, which adds
through row_sums too; region_of gathers the picked members' columns of the
table as column-major representatives and flags typicality from a pick's
sums.

Selection runs over blocks of syndromes, each a (p^k, columns) array of sums,
message by syndrome, of at most _BLOCK_POINTS entries where p^k allows: the
syndrome index reads the free digits most significant first, so fixing the
leading free digits and taking a span of the next one covers a contiguous run
of columns; within a block the columns hold the free digits last one slowest,
and each block's outputs are put back in syndrome order. Under the ML rule a
syndrome's sum is its column maximum. The typicality rule compares the sums
with the interval typical_interval derives from typical. Each syndrome's first
qualifying message is found with first_hit, a max-reduce over the message
axis: always under typicality, whose sums are read at those rows, and under
ML only when the rows are asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codes import MAX_POINTS, LinearCode, check_cap
from .distributions import DiscreteTarget, TypicalityParams, row_sums, typical, typical_interval
from .errors import DimensionMismatchError
from .zplinalg import mod_reduce

# Messages x syndrome columns that one block of choose scores at once; a code
# with more messages than this scores one column per block.
_BLOCK_POINTS = 1 << 18
# Entries per row that column_max reduces over axis 0.
_FOLD_WIDTH = 1 << 10


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
    """Vectorized coset_id over rows.

    The indices are int64, so a code with p**(n-k) >= 2**63 cosets is refused
    with TooLargeError; no other cap applies.
    """
    m = code.n - code.k
    check_cap(code.p, m, None, 1 << 63, "cosets")
    pows = code.p ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return mod_reduce(ys, code.p) @ code.parity.T % code.p @ pows


def _members(code: LinearCode) -> np.ndarray:
    """The (n, p**k) table whose row j is coordinate j of each message's coset-0 member.

    Messages are in lexicographic order, and message u's member is the
    systematic codeword u.R mod p: digit i of u at pivot i, each earlier digit
    the slower axis, and the shift u.A mod p at each free coordinate, summed
    from the pivot rows already in the table. Those sums stay below
    k.(p-1)**2, which the code's modulus keeps in int64. Beside the table it
    holds a row or two.
    """
    p, k, piv = code.p, code.k, code.pivot_cols
    table = np.empty((code.n, p**k), dtype=np.int64)
    for i, j in enumerate(piv):
        table[j].reshape(p**i, p, -1)[...] = np.arange(p)[:, None]
    for a, j in zip(-code.parity[:, list(piv)] % p, code.nonpivot_cols):
        table[j] = sum(c * table[i] for c, i in zip(a, piv) if c) % p
    return table


def choose(
    code: LinearCode,
    target: DiscreteTarget,
    criterion: str,
    epsilon: float,
    max_points: int | None,
    *,
    with_rows: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Each coset's chosen message row and its member's log2-likelihood, by syndrome.

    The one home of both rules: "ml" is maximum likelihood, "typicality" the
    typicality rule, anything else a ValueError; ties go to the first message,
    i.e. the lexicographically first member. An ML sum is its column's maximum,
    which is the first maximal member's sum bit for bit, so an ML row is found
    only when with_rows is set, and is None otherwise. A typicality sum is read at its row,
    so typicality returns its rows either way.

    The free digits before a lead digit are fixed per block, which takes up to
    span values of the lead digit and every value of the digits after it. The
    sums of a fixed prefix are shared by the blocks under it, and every column
    is still added from zeros in coordinate order, so the blocking changes no
    bit of the result. Within a block each new free digit is the slowest axis
    of the columns, so an addition runs along the previous columns; a block's
    rows and sums are written into syndrome order through a view of the
    outputs with those axes reversed, in one copy.
    """
    if criterion not in ("ml", "typicality"):
        raise ValueError(f"unknown criterion {criterion!r}")
    p, n, m = code.p, code.n, code.n - code.k
    check_cap(p, n, max_points, MAX_POINTS, "points")
    if target.p != p:
        raise ValueError("target modulus differs from code modulus")
    if criterion == "typicality":
        lo, hi = typical_interval(n, target, epsilon)
    table = _members(code)
    logp = target.log2_probs
    rows = p**code.k
    free = code.nonpivot_cols
    # the pivot coordinates after each free coordinate, up to the next free one
    after = [range(f + 1, g) for f, g in zip(free, free[1:] + (n,))]
    lead = next((f for f in range(m) if rows * p ** (m - f - 1) <= _BLOCK_POINTS), m - 1)
    width = p ** (m - lead - 1)
    span = min(p, max(1, _BLOCK_POINTS // (rows * width)))
    # a block's columns, free digits m-1 (slowest) down to lead
    digit_axes = (p,) * (m - lead - 1) + (-1,)
    # the last free digit writes each block's sums here; it and the outputs are
    # allocated before any block is scored
    block = np.empty(rows * span * width)
    row_out = np.empty(p**m, dtype=np.int64) if with_rows or criterion == "typicality" else None
    ll_out = np.empty(p**m)

    def extend(ll, f, values):
        """ll's columns once for each of values of free digit f, in turn."""
        terms = logp[(values + table[free[f], :, None]) % p]
        ncols = ll.shape[1]
        size = rows * len(values) * ncols
        out = (block if f == m - 1 else np.empty(size))[:size].reshape(rows, len(values), ncols)
        if ncols < 5:
            # numpy's inner loop runs over the last axis: for a short one, add per column
            for c in range(ncols):
                np.add(ll[:, c, None], terms, out=out[:, :, c])
        else:
            np.add(ll[:, None, :], terms[:, :, None], out=out)
        ll = out.reshape(rows, -1)
        for j in after[f]:
            ll += logp[table[j], None]
        return ll

    # prefix[f]: the sums through the free digits before f of the current prefix;
    # the coordinates before the first free one are pivots 0, 1, ..., in order
    prefix = [row_sums(logp, table[: free[0]].T)[:, None]]
    for index, digits in enumerate(itertools.product(range(p), repeat=lead)):
        # the digits before the last nonzero one are the previous prefix's
        del prefix[max((f for f, d in enumerate(digits) if d), default=0) + 1 :]
        for f in range(len(prefix) - 1, lead):
            prefix.append(extend(prefix[f], f, np.arange(digits[f], digits[f] + 1)))
        for a in range(0, p, span):
            ll = extend(prefix[lead], lead, np.arange(a, min(a + span, p)))
            for f in range(lead + 1, m):
                ll = extend(ll, f, np.arange(p))
            if criterion == "typicality":
                # a coset with no typical member falls back to its first member
                row = first_hit((ll >= lo) & (ll <= hi))
                # a flat take: indexing by (row, column) pairs is slower
                best = ll.take(row * ll.shape[1] + np.arange(ll.shape[1]))
            else:
                best = column_max(ll)
                row = None if row_out is None else first_hit(ll == best)
            first = (index * p + a) * width
            cols = slice(first, first + ll.shape[1])
            ll_out[cols].reshape(digit_axes[::-1]).T[...] = best.reshape(digit_axes)
            if row is not None:
                row_out[cols].reshape(digit_axes[::-1]).T[...] = row.reshape(digit_axes)
    return row_out, ll_out


def first_hit(hits: np.ndarray) -> np.ndarray:
    """Each column's first True row, or 0 for a column with none.

    Rows get descending weights rows..1 in the smallest unsigned dtype that
    holds them, and column_max finds the first hit's weight, where
    argmax(axis=0) walks strided columns.
    """
    rows = hits.shape[0]
    weights = np.arange(rows, 0, -1, dtype=np.min_scalar_type(rows))
    best = column_max(hits * weights[:, None])
    # best = rows - row for a hit; 0 (no hit) maps to row 0
    return np.where(best == 0, 0, rows - best.astype(np.int64))


def column_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=0) of a 2-d array, with its rows folded into wider ones first.

    numpy reduces axis 0 one row at a time, which is slow for short rows: so
    runs of t rows become rows of about _FOLD_WIDTH entries, whose column
    maxima are then reduced over the t offsets; leftover rows are reduced on
    their own. The maximum is exact, so the grouping changes no value.
    """
    rows, cols = a.shape
    t = min(rows, _FOLD_WIDTH // cols)
    if t < 2:
        return a.max(axis=0)
    cut = rows - rows % t
    best = a[:cut].reshape(-1, t * cols).max(axis=0).reshape(t, cols).max(axis=0)
    return best if cut == rows else np.maximum(best, a[cut:].max(axis=0))


def region_of(
    code: LinearCode, target: DiscreteTarget, criterion: str, epsilon: float, pick: tuple
) -> FundamentalRegion:
    """The region of the members choose picked, flagged from the sums it returned.

    The picked messages' columns of the member table, transposed, are the
    coset-0 members as a column-major (p**(n-k), n) array; each free column
    then adds its syndrome digit, wrapped mod p through a 2p-entry table.
    Beside the table and the representatives it holds a column of p**(n-k)
    entries, never a (p**(n-k), n-k) table.
    """
    row, ll = pick
    p = code.p
    good = typical(ll, code.n, target, epsilon)
    wrap = np.arange(2 * p) % p
    reps = _members(code).take(row, axis=1).T
    for f, j in enumerate(code.nonpivot_cols):
        # free digit f of the syndrome index runs through 0..p-1, each held for p**(n-k-f-1) rows
        col = reps[:, j].reshape(p**f, p, -1)  # a view: reps is column-major
        col += np.arange(p)[:, None]
        col[...] = wrap[col]
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

    Entries must be integers within int64's range, as mod_reduce takes them,
    and so must the lattice point's: a vector whose point y - rep would fall
    below int64's range is refused with ValueError too.
    """
    residue = mod_reduce(y, region.code.p)
    if residue.ndim != 1 or residue.size != region.code.n:
        raise ValueError(f"expected a length-{region.code.n} vector")
    rep = region.reps[coset_id(region.code, residue)]
    # mod_reduce accepted y, so its entries are integers that int64 holds exactly
    y = np.asarray(y, dtype=np.int64)
    if (y < rep + np.iinfo(np.int64).min).any():
        raise ValueError(f"the lattice point of {y.tolist()} leaves int64")
    return QuantizationResult(y - rep, rep.copy())


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
