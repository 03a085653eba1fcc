"""Exact linear algebra over Z_p, and the parity checks codes derive from it."""

import math

import numpy as np
import pytest

import lqn.codes
import lqn.zplinalg
from lqn import TooLargeError, ensure_prime, is_prime, make_code, mod_reduce, rref, sample_generator
from lqn.zplinalg import ranks


def enumerate_rowspace(m, p):
    """All p**k combinations of the rows, as a set of tuples. Test-local oracle."""
    m = np.atleast_2d(np.asarray(m, dtype=np.int64)) % p
    k = m.shape[0]
    out = set()
    for idx in range(p**k):
        coeffs = [(idx // p**j) % p for j in range(k)]
        v = np.zeros(m.shape[1], dtype=np.int64)
        for c, row in zip(coeffs, m):
            v = (v + c * row) % p
        out.add(tuple(int(x) for x in v))
    return out


def test_is_prime_small_values():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(37)
    assert not is_prime(1)
    assert not is_prime(-7)
    assert not is_prime(91)  # 7 * 13


def test_ensure_prime_rejects_composites():
    assert ensure_prime(13) == 13
    with pytest.raises(ValueError):
        ensure_prime(12)
    with pytest.raises(ValueError):
        ensure_prime(1)


def test_mod_reduce_wraps_negatives():
    out = mod_reduce([-1, 0, 7, -6], 5)
    assert out.tolist() == [4, 0, 2, 4]
    assert out.dtype == np.int64


def test_mod_reduce_takes_integral_entries_exactly():
    assert mod_reduce([2.0, -1.0, 7.0], 5).tolist() == [2, 4, 2]
    assert mod_reduce(np.array([9, 2**40], dtype=np.uint64), 7).tolist() == [2, 2**40 % 7]
    assert mod_reduce(np.array([[3, -8]], dtype=np.int32), 5).tolist() == [[3, 2]]
    assert mod_reduce(np.zeros((0, 3)), 5).shape == (0, 3)


@pytest.mark.parametrize(
    "v",
    [[1.5, 1.2], [0.2], [math.nan, 0], [0, math.inf], ["3"], [2**70, 0], [-(2**63) - 1],
     np.array([2**63], dtype=np.uint64), np.array([0.5], dtype=np.float32)],
    ids=str,
)
def test_mod_reduce_refuses_entries_that_are_not_int64_integers(v):
    with pytest.raises(ValueError, match="expected integer entries within int64"):
        mod_reduce(v, 3)


def _stack(rng, count, k, n, p):
    """count k x n matrices: half uniform, half of rank at most a random r < k,
    each row a combination of r base rows, so many rows are dependent."""
    uniform = rng.integers(0, p, size=(count // 2, k, n))
    r = rng.integers(0, k, size=count - count // 2)
    base = rng.integers(0, p, size=(len(r), k, n)) * (np.arange(k) < r[:, None])[:, :, None]
    coeffs = rng.integers(0, p, size=(len(r), k, k))
    low = np.stack([c @ b % p for c, b in zip(coeffs, base)])
    return np.concatenate([uniform, low])


@pytest.mark.parametrize("p", [2, 7, 4194301])
@pytest.mark.parametrize("k_of_n", ["k=1", "k=n-1"])
def test_ranks_match_rref_on_random_stacks(p, k_of_n):
    rng = np.random.default_rng(p)
    for n in (2, 3, 5, 8):
        k = 1 if k_of_n == "k=1" else n - 1
        stack = _stack(rng, 200, k, n, p)
        before = stack.copy()
        got = ranks(stack, p)
        assert got.tolist() == [rref(m, p).rank for m in stack]
        assert np.array_equal(stack, before)
        # the stacks hold deficient and full-rank matrices alike
        assert (got < k).any() and (got == k).any()


def test_ranks_of_fixed_stacks():
    stack = [[[1, 1], [2, 2]], [[0, 1], [1, 0]], [[0, 0], [0, 0]], [[3, 0], [0, 3]]]
    assert ranks(stack, 3).tolist() == [1, 2, 0, 0]
    assert ranks(np.zeros((0, 2, 4), dtype=np.int64), 5).shape == (0,)


def _python_rref(m, p):
    """Reduced row echelon form over Z_p on Python ints, and its pivot columns."""
    a = [[int(x) % p for x in row] for row in m]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        hit = next((i for i in range(r, len(a)) if a[i][c]), None)
        if hit is None:
            continue
        a[r], a[hit] = a[hit], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [(x - a[i][c] * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a, tuple(pivots)


def _rank_two(rng, count, p):
    """count 3 x 4 matrices of rank exactly 2 over Z_p: the third row is a
    combination of the first two, on Python ints."""
    out = []
    while len(out) < count:
        rows = [[int(x) for x in rng.integers(0, p, size=4)] for _ in range(2)]
        a, b = (int(x) for x in rng.integers(1, p, size=2))
        m = rows + [[(a * x + b * y) % p for x, y in zip(*rows)]]
        if len(_python_rref(m, p)[1]) == 2:
            out.append(m)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("fn", [rref, ranks], ids=["rref", "ranks"])
def test_a_modulus_whose_products_overflow_int64_is_refused(monkeypatch, fn):
    # at 4294967291, (p - 1)**2 >= 2**63: the row products wrap in int64
    def refuse(*args):
        raise AssertionError("reduced entries before the int64 check")

    monkeypatch.setattr(lqn.zplinalg, "mod_reduce", refuse)
    stack = np.ones((1, 3, 4), dtype=np.int64)
    with pytest.raises(TooLargeError, match="modulus 4294967291 .*overflows the int64"):
        fn(stack[0] if fn is rref else stack, 4294967291)


def test_rref_and_ranks_are_exact_at_the_largest_modulus_they_take():
    # 3037000493 is the largest prime with (p - 1)**2 < 2**63
    p = 3037000493
    assert (p - 1) ** 2 < 2**63 <= 3037000500**2
    assert not any(is_prime(q) for q in range(p + 1, 3037000501))
    stack = _rank_two(np.random.default_rng(5), 200, p)
    assert ranks(stack, p).tolist() == [2] * 200
    for m in stack:
        want, pivots = _python_rref(m.tolist(), p)
        got = rref(m, p)
        assert got.rank == 2 and got.pivot_cols == pivots
        assert got.matrix.tolist() == want


def test_rref_fixed_cases():
    r = rref([[1, 1]], 3)
    assert r.matrix.tolist() == [[1, 1]]
    assert r.rank == 1
    assert r.pivot_cols == (0,)

    # dependent rows collapse, pivot scaled to 1
    r = rref([[2, 2], [1, 1]], 3)
    assert r.matrix.tolist() == [[1, 1], [0, 0]]
    assert r.rank == 1

    # row swap to bring a pivot up, then clear above
    r = rref([[0, 1, 1], [1, 0, 2]], 3)
    assert r.matrix.tolist() == [[1, 0, 2], [0, 1, 1]]
    assert r.pivot_cols == (0, 1)


def test_rref_is_idempotent_and_preserves_rowspace():
    rng = np.random.default_rng(2024)
    for p in (2, 3, 5):
        for _ in range(20):
            m = rng.integers(0, p, size=(2, 4))
            r = rref(m, p)
            again = rref(r.matrix, p)
            assert np.array_equal(again.matrix, r.matrix)
            assert again.pivot_cols == r.pivot_cols
            assert enumerate_rowspace(m, p) == enumerate_rowspace(r.matrix, p)
            assert r.rank == len(r.pivot_cols)


def test_rref_pivot_columns_are_unit_vectors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(0, 5, size=(3, 5))
        r = rref(m, 5)
        for i, c in enumerate(r.pivot_cols):
            col = r.matrix[:, c]
            assert col[i] == 1
            assert np.count_nonzero(col) == 1


def test_rref_output_read_only():
    r = rref([[1, 2], [3, 4]], 5)
    with pytest.raises(ValueError):
        r.matrix[0, 0] = 9


def test_parity_check_fixture():
    # G = [1 1] over Z_3: single free column, H = [[2 1]]
    h = make_code([[1, 1]], 3).parity
    assert h.tolist() == [[2, 1]]

    h = make_code([[1, 0, 2], [0, 1, 1]], 3).parity
    assert h.tolist() == [[1, 2, 1]]


def test_parity_check_annihilates_rowspace():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 7):
        for _ in range(10):
            g = rng.integers(0, p, size=(2, 5))
            if rref(g, p).rank < 2:
                continue
            h = make_code(g, p).parity
            assert h.shape == (3, 5)
            assert not (g @ h.T % p).any()


def test_parity_check_kernel_is_exactly_the_code():
    # over the whole of Z_p^n, zero syndrome <-> rowspace membership
    for g, p in (([[1, 1]], 3), ([[1, 2, 4]], 5), ([[1, 0, 1], [0, 1, 2]], 3)):
        h = make_code(g, p).parity
        n = np.atleast_2d(g).shape[1]
        space = enumerate_rowspace(g, p)
        grid = np.stack(
            np.unravel_index(np.arange(p**n), (p,) * n), axis=1
        ).astype(np.int64)
        zero = ~(grid @ h.T % p).any(axis=1)
        kernel = {tuple(int(x) for x in v) for v in grid[zero]}
        assert kernel == space


def test_parity_check_syndromes_split_space_evenly():
    g, p = [[1, 2, 0, 1]], 3
    h = make_code(g, p).parity
    grid = np.stack(np.unravel_index(np.arange(3**4), (3,) * 4), axis=1)
    s = grid @ h.T % p
    # each of the p**(n-k) syndrome patterns hits exactly p**k vectors
    _, counts = np.unique(s, axis=0, return_counts=True)
    assert counts.shape[0] == 27
    assert (counts == 3).all()


def test_one_rref_per_sampled_code(monkeypatch):
    # the parity check comes from make_code's own row reduction
    calls = {"rref": 0, "draws": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(lqn.codes, "rref", counting("rref", lqn.codes.rref))
    monkeypatch.setattr(lqn.codes, "make_code", counting("draws", lqn.codes.make_code))
    for seed in range(20):
        code = sample_generator(seed, 3, 6, 7)
        assert not (code.generator @ code.parity.T % 7).any()
    assert calls["rref"] == calls["draws"] >= 20

