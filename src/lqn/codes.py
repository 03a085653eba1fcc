"""Random linear codes over Z_p and the integer lattices they generate.

A code with k x n generator G is the row space {u.G mod p}. Adding p.Z^n
turns it into a lattice; membership and coset bookkeeping go through the
parity-check matrix. Generators are drawn entrywise uniform from a seeded
PCG64 stream and resampled until full rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteTarget
from .errors import NoFeasibleRateError, RankDeficientError, TooLargeError
from .zplinalg import ensure_prime, mod_reduce, rref

MAX_CODEWORDS = 1 << 22
MAX_POINTS = 1 << 24
RESAMPLE_CAP = 1000


def check_cap(count: int, cap: int | None, default: int, what: str) -> None:
    """Refuse to enumerate count items when it exceeds cap (default when None).

    Counts of 2**63 or more are refused whatever the cap: coset_ids and choose's
    message rows are int64. From 2**256 on, a count is shown as a power of two.
    """
    if count >= 1 << 63:
        shown = count if count < 1 << 256 else f"over 2**{count.bit_length() - 1}"
        raise TooLargeError(f"{shown} {what} overflow the int64 encodings")
    cap = default if cap is None else int(cap)
    if count > cap:
        raise TooLargeError(f"{count} {what} exceed the cap {cap}")


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A full-rank k x n generator over Z_p with its derived parity map."""

    generator: np.ndarray
    p: int
    k: int
    n: int
    parity: np.ndarray
    pivot_cols: tuple[int, ...]
    nonpivot_cols: tuple[int, ...]

    @property
    def num_codewords(self) -> int:
        return self.p**self.k

    @property
    def num_cosets(self) -> int:
        return self.p ** (self.n - self.k)


def make_code(generator, p: int) -> LinearCode:
    """Wrap a generator matrix, rejecting rank-deficient ones.

    The parity check comes from the same row reduction: each non-pivot column
    gives one row with a 1 in that column and the negated pivot coefficients,
    so its kernel is exactly the row space and its syndromes separate the
    p**(n-k) cosets.
    """
    p = ensure_prime(p)
    g = mod_reduce(np.atleast_2d(generator), p)
    k, n = g.shape
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    red = rref(g, p)
    if red.rank < k:
        raise RankDeficientError(f"generator has rank {red.rank}, expected {k}")
    piv = red.pivot_cols
    free = tuple(c for c in range(n) if c not in set(piv))
    h = np.zeros((n - k, n), dtype=np.int64)
    h[np.arange(n - k), free] = 1
    h[:, list(piv)] = (-red.matrix[:, free].T) % p
    h.setflags(write=False)
    g.setflags(write=False)
    return LinearCode(g, p, k, n, h, piv, free)


def draw_full_rank(rng: np.random.Generator, k: int, n: int, p: int) -> LinearCode:
    """Draw i.i.d. uniform entries until the matrix has full row rank."""
    for _ in range(RESAMPLE_CAP):
        g = rng.integers(0, p, size=(k, n), dtype=np.int64)
        try:
            return make_code(g, p)
        except RankDeficientError:
            continue
    raise RankDeficientError(f"no full-rank draw in {RESAMPLE_CAP} attempts")


def sample_generator(seed, k: int, n: int, p: int) -> LinearCode:
    """Seeded random code. Same seed, same code, on any platform.

    The seed may be an int or a tuple of ints; tuples name derived substreams
    such as (run_seed, trial_index).
    """
    ensure_prime(p)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return draw_full_rank(rng, k, n, p)


def lex_grid(p: int, m: int) -> np.ndarray:
    """Every vector of Z_p^m as a row, in lexicographic order, zero row first.

    The (p**m, m) grid is one C-ordered allocation, filled column by column.
    """
    grid = np.empty((p**m, m), dtype=np.int64)
    cube = grid.reshape((p,) * m + (m,))
    for i in range(m):
        cube[..., i] = np.arange(p).reshape((p,) + (1,) * (m - 1 - i))
    return grid


def enumerate_codewords(code: LinearCode) -> np.ndarray:
    """All p**k codewords, message vectors in lexicographic order, zero row first."""
    check_cap(code.num_codewords, None, MAX_CODEWORDS, "codewords")
    return lex_grid(code.p, code.k) @ code.generator % code.p


def lattice_contains(code: LinearCode, y) -> bool:
    """Membership of an integer vector in code + p.Z^n (zero syndrome)."""
    y = mod_reduce(y, code.p)
    if y.ndim != 1 or y.size != code.n:
        raise ValueError(f"expected a length-{code.n} vector")
    return not bool((y @ code.parity.T % code.p).any())


def rate(k: int, n: int, p: int) -> float:
    """Code rate k.log2(p)/n in bits per sample. k = 0 is allowed here only."""
    if k < 0 or k >= n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    return k * math.log2(p) / n


def select_k(p: int, n: int, target: DiscreteTarget, mode: str) -> int:
    """Pick the code dimension from the target's entropy.

    "theorem": the smallest k whose rate clears log2(p) - H + 2/n, the
    threshold at which random codes make every typical point matchable.
    "closest": the k in [1, n-1] whose rate is nearest log2(p) - H, ties
    broken toward the smaller k.
    """
    ensure_prime(p)
    logp = math.log2(p)
    h = target.entropy_bits
    if mode == "theorem":
        need = n * (logp - h + 2.0 / n) / logp
        k = max(1, math.ceil(need - 1e-9))
        if k >= n:
            raise NoFeasibleRateError(
                f"smallest feasible dimension {k} reaches the block length {n}"
            )
        return k
    if mode == "closest":
        goal = logp - h
        return min(range(1, n), key=lambda k: (abs(k * logp / n - goal), k))
    raise ValueError(f"unknown mode {mode!r}")
