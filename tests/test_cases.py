"""Bundled targets: shapes, seeds, and protocol defaults stay pinned."""

import math

from lqn import builtin_cases, continuous_builtins

H_W3 = 1.9332062193464952


def test_case_bank_names_and_defaults():
    cases = builtin_cases()
    assert sorted(cases) == ["w1", "w2", "w3", "w4"]
    for case in cases.values():
        assert case.default_k == case.k_values[0]


def test_case_shapes_and_seeds():
    cases = builtin_cases()
    assert (cases["w1"].target.p, cases["w1"].n, cases["w1"].k_values) == (37, 2, (1,))
    assert (cases["w2"].target.p, cases["w2"].n, cases["w2"].k_values) == (37, 2, (1,))
    assert (cases["w3"].target.p, cases["w3"].n) == (7, 6)
    assert cases["w3"].k_values == (1, 2, 3, 4, 5)
    assert (cases["w4"].target.p, cases["w4"].n, cases["w4"].k_values) == (13, 6, (1,))
    seeds = {name: case.seed for name, case in cases.items()}
    assert seeds == {"w1": 11, "w2": 12, "w3": 13, "w4": 3}


def test_w1_near_step_profile():
    probs = builtin_cases()["w1"].target.probs
    hot = {0, 1, 2, 34, 35, 36}
    for w in range(37):
        assert probs[w] == (0.999 / 6 if w in hot else 0.001 / 31)


def test_w2_taper_is_renormalized():
    # the raw taper values add up to 0.9999, not 1
    raw = [0.1427] * 5 + [0.0951] * 2 + [0.0476] * 2 + [0.001]
    assert abs(math.fsum(raw) - 0.9999) <= 1e-12
    probs = builtin_cases()["w2"].target.probs
    assert abs(math.fsum(probs) - 1.0) <= 1e-12
    # symmetric taper around zero: 1<->36, 2<->35, 3<->34, 4<->33
    for w in range(1, 37):
        assert probs[w] == probs[37 - w]
    assert probs[0] == probs[1] == probs[2]
    assert probs[2] > probs[3] > probs[4] > probs[5]
    assert all(probs[w] == probs[5] for w in range(5, 33))


def test_w3_skew_profile():
    target = builtin_cases()["w3"].target
    assert target.probs[1] == 0.6
    assert target.probs[4] == 0.15
    assert all(target.probs[w] == 0.05 for w in (0, 2, 3, 5, 6))
    assert abs(target.entropy_bits - H_W3) <= 1e-12


def test_w4_circular_triangle_profile():
    probs = builtin_cases()["w4"].target.probs
    for y in range(13):
        assert probs[y] == (7 - min(y, 13 - y)) / 49
    for y in range(1, 13):
        assert probs[y] == probs[13 - y]
    assert probs[0] == max(probs)


def test_continuous_builtins_validate():
    builtins = continuous_builtins()
    assert sorted(builtins) == ["flat", "triangle"]
    tri = builtins["triangle"]
    assert tri.half_width == 1.0
    assert tri.knots == ((-1.0, 0.0625), (0.0, 0.9375), (1.0, 0.0625))
    assert (tri.a_min, tri.a_max) == (0.0625, 0.9375)
    flat = builtins["flat"]
    assert flat.knots == ((-1.0, 0.5), (1.0, 0.5))
    assert flat.a_min == flat.a_max == 0.5
