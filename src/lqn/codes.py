"""Random linear codes over Z_p and the integer lattices they generate.

A code with k x n generator G is the row space {u.G mod p}. Adding p.Z^n
turns it into a lattice; membership and coset bookkeeping go through the
parity-check matrix. Generators are drawn entrywise uniform from a seeded
stream and resampled until full rank. A modulus is refused unless
n.(p-1)**2 < 2**63: every dot product here has at most n terms, each a product
of two residues, and is formed in int64.

Every seeded draw is lqn's own replay of numpy's default_rng(SeedSequence(seed))
.integers, bit for bit: SeedSequence's hash of the seed's 32-bit words
(seed_words), PCG64's 128-bit LCG with its XSL-RR output, and Lemire's bounded
draw on 32-bit words with its rejection loop. Stream replays one such generator
on Python ints; substream_integers replays, for a whole range of trials t at
once, the first draws on the substreams (seed, t), as whole-array passes over
the trials. trial_draws turns those into the Monte Carlo estimator's
per-trial code and shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteTarget
from .errors import NoFeasibleRateError, RankDeficientError, TooLargeError
from .zplinalg import check_products, ensure_prime, mod_reduce, ranks, rref

MAX_CODEWORDS = 1 << 22
MAX_POINTS = 1 << 24
RESAMPLE_CAP = 1000

# numpy's SeedSequence constants, as Python ints: numpy scalar overflow warns
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier, high and low 64-bit halves
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_PCG_MULT = _PCG_MULT_HI << 64 | _PCG_MULT_LO


def check_cap(p: int, e: int, cap: int | None, default: int, what: str) -> None:
    """Refuse to enumerate p**e items when that count exceeds cap (default when None).

    The one place a point or codeword count is formed: callers pass the base
    and the exponent. Counts of 2**63 or more are refused whatever the cap:
    coset_ids and choose's message rows are int64. The count is formed only
    when e * p.bit_length() <= 256, so it has at most 78 digits; past that it
    is over 2**128, and refused at once, shown as p**e. Bases -1, 0 and 1 have
    every power in range.
    """
    count = p**e if abs(p) < 2 or e * p.bit_length() <= 256 else None
    if count is None or count >= 1 << 63:
        shown = f"{p}**{e}" if count is None else count
        raise TooLargeError(f"{shown} {what} overflow the int64 encodings")
    cap = default if cap is None else int(cap)
    if count > cap:
        raise TooLargeError(f"{count} {what} exceed the cap {cap}")


def _checked_modulus(p, n: int) -> int:
    """p as a prime Python int, refused with TooLargeError unless n.(p-1)**2 < 2**63.

    The bound is checked first, so a huge p is refused before trial division.
    """
    return ensure_prime(check_products(p, n))


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
    g = np.atleast_2d(generator)
    k, n = g.shape
    p = _checked_modulus(p, n)
    g = mod_reduce(g, p)
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


def draw_full_rank(rng: Stream, k: int, n: int, p: int) -> LinearCode:
    """Draw i.i.d. uniform entries until the matrix has full row rank.

    rng is a Stream, or anything with numpy Generator's integers call form.
    """
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
    such as (run_seed, trial_index). The code is the one
    draw_full_rank(default_rng(SeedSequence(seed)), k, n, p) gives in numpy.
    """
    p = _checked_modulus(p, n)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return draw_full_rank(Stream(seed), k, n, p)


def seed_words(seed) -> list[int]:
    """The 32-bit entropy words numpy's SeedSequence takes from seed.

    An int gives its little-endian words (0 gives [0]); a sequence gives its
    elements' words in turn, so () gives []. A negative int is refused with
    ValueError, and None, a float, a str or any other object with TypeError.
    """
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        return [int(seed) >> s & _M32 for s in range(0, int(seed).bit_length() or 1, 32)]
    if isinstance(seed, (tuple, list, range, np.ndarray)):
        return [word for part in seed for word in seed_words(part)]
    raise TypeError(f"seed must be an integer or a sequence of integers, got {seed!r}")


class Stream:
    """default_rng(SeedSequence(seed)) replayed on Python ints, for its integers draws.

    Every draw takes 32-bit words, as numpy's does for a range of at most
    2**32. A PCG64 output serves two of them, the low half first; the high
    half waits for the next draw, across calls, as in numpy.
    """

    def __init__(self, seed):
        seed_hi, seed_lo, seq_hi, seq_lo = _seed_state(seed_words(seed))
        # PCG64's srandom: inc = 2 * seq + 1; zero state stepped to inc, plus the seed, stepped
        self._inc = (seq_hi << 65 | seq_lo << 1 | 1) & _M128
        self._state = ((self._inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + self._inc) & _M128
        self._held = []

    def _next32(self) -> int:
        if not self._held:
            self._state = (self._state * _PCG_MULT + self._inc) & _M128
            # XSL-RR: the halves xor-ed, rotated right by the state's top six bits
            x, rot = (self._state >> 64 ^ self._state) & _M64, self._state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            self._held = [x >> 32, x & _M32]
        return self._held.pop()

    def _bounded(self, p: int) -> int:
        """Lemire's draw in [0, p): w * p >> 32, w redrawn while its low 32 bits fall short."""
        m = self._next32() * p
        while m & _M32 < ((1 << 32) - p) % p:
            m = self._next32() * p
        return m >> 32

    def integers(self, low: int, high: int, size, dtype=np.int64) -> np.ndarray:
        """Generator.integers(low, high, size, dtype) for 1 <= high - low <= 2**32.

        A wider range is refused: numpy draws 64-bit words there.
        """
        if not 1 <= high - low <= 1 << 32:
            raise ValueError(f"need 1 <= high - low <= 2**32, got {high - low}")
        out = np.empty(size, dtype=dtype)
        out.flat = [low + self._bounded(high - low) for _ in range(out.size)]
        return out


def _hashmix(value, const: int):
    """SeedSequence's hashmix on a 32-bit word; also returns the next constant.

    A word is a Python int or a uint64 array of 32-bit values, one per trial;
    every product is masked to 32 bits, as numpy's uint32 arithmetic wraps.
    """
    value = value ^ const
    const = const * _MULT_A & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    mixed = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _M32
    return mixed ^ mixed >> 16


def _seed_state(entropy: list) -> list:
    """SeedSequence(words).generate_state(4, uint64) as four words, high half first.

    entropy holds the 32-bit entropy words: Python ints for one seed, or uint64
    arrays over the trials, and so is each returned 64-bit word.
    """
    const = _INIT_A
    pool = []
    for word in (entropy + [0] * _POOL_SIZE)[:_POOL_SIZE]:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            word, const = _hashmix(extra, const)
            pool[dst] = _mix(pool[dst], word)
    const = _INIT_B
    halves = []
    for i in range(2 * _POOL_SIZE):
        word = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _M32
        word = word * const & _M32
        halves.append(word ^ word >> 16)
    return [halves[2 * j] | halves[2 * j + 1] << 32 for j in range(_POOL_SIZE)]


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each a * b, a uint64 array and b < 2**64, from 32-bit halves."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    low = a0 * b0
    mid = a1 * b0 + (low >> 32)
    cross = (mid & _M32) + a0 * b1
    return a1 * b1 + (mid >> 32) + (cross >> 32)


def _add128(hi, lo, add_hi, add_lo):
    """(hi, lo) + (add_hi, add_lo) mod 2**128, each half a uint64 array."""
    lo = lo + add_lo
    return hi + add_hi + (lo < add_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One step of PCG64's LCG: state * multiplier + inc mod 2**128."""
    prod_hi = _mulhi(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    return _add128(prod_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def substream_integers(seed, start: int, trials: int, words: int, p: int):
    """The first draws of integers(0, p, size=words) on the substreams (seed, t).

    Returns (values, rejected) for t in [start, start + trials): row t - start
    of the int64 values equals
    default_rng(SeedSequence((seed, t))).integers(0, p, size=words) unless
    rejected flags that trial. Each PCG64 output gives two 32-bit words, the
    low half first, and a word w becomes (w * p) >> 32. Numpy's Lemire loop
    throws w away and draws again when (w * p) mod 2**32 < (2**32 - p) mod p;
    a trial with such a word is flagged and its row is not numpy's draw.
    Needs 2 <= p < 2**32, where numpy draws 32-bit words, and
    start + trials <= 2**64.
    """
    if not 2 <= p < 1 << 32:
        raise ValueError(f"need 2 <= p < 2**32, got {p}")
    # the entropy of (seed, t) is seed's words, then t's: one below 2**32, two above
    t = np.arange(start, start + trials, dtype=np.uint64)
    columns = [np.full(trials, w, dtype=np.uint64) for w in seed_words(seed)]
    columns += [t & _M32, t >> 32]
    split = min(max((1 << 32) - start, 0), trials)
    one_word = _seed_state([c[:split] for c in columns[:-1]])
    two_words = _seed_state([c[split:] for c in columns])
    seed_hi, seed_lo, seq_hi, seq_lo = (np.concatenate(h) for h in zip(one_word, two_words))
    # PCG64's srandom: inc = 2 * seq + 1; zero state stepped to inc, plus the seed, stepped
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    values = np.empty((trials, words), dtype=np.int64)
    rejected = np.zeros(trials, dtype=bool)
    for j in range(words):
        if j % 2 == 0:
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            # XSL-RR: the halves xor-ed, rotated right by the state's top six bits
            x, rot = hi ^ lo, hi >> 58
            x = x >> rot | x << ((64 - rot) & 63)
        scaled = ((x >> 32 * (j % 2)) & _M32) * p
        rejected |= (scaled & _M32) < ((1 << 32) - p) % p
        values[:, j] = scaled >> 32
    return values, rejected


def trial_draws(seed, start: int, trials: int, k: int, n: int, p: int) -> np.ndarray:
    """Each Monte Carlo trial's full-rank generator and uniform shift, as (trials, k + 1, n).

    Row t - start holds, for t in [start, start + trials), the k generator rows
    draw_full_rank(rng, k, n, p) gives, then the shift rng.integers(0, p, size=n),
    with rng = Stream((seed, t)). substream_integers draws every trial's first
    (k + 1) * n words at once; a trial it flags, or whose generator ranks finds
    rank-deficient, is redrawn that way on its own Stream.
    """
    drawn, rejected = substream_integers(seed, start, trials, (k + 1) * n, p)
    drawn = drawn.reshape(-1, k + 1, n)
    for i in np.flatnonzero(rejected | (ranks(drawn[:, :k], p) < k)).tolist():
        rng = Stream((seed, start + i))
        drawn[i, :k] = draw_full_rank(rng, k, n, p).generator
        drawn[i, k] = rng.integers(0, p, size=n, dtype=np.int64)
    return drawn


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
    check_cap(code.p, code.k, None, MAX_CODEWORDS, "codewords")
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
    "closest": the k in [1, n-1] whose rate(k, n, p) is nearest log2(p) - H,
    ties broken toward the smaller k.
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
        return min(range(1, n), key=lambda k: (abs(rate(k, n, p) - goal), k))
    raise ValueError(f"unknown mode {mode!r}")
