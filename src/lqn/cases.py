"""Bundled example targets and the seed bank for the reproduce command.

Four discrete targets ship with the package:

  w1  near-step pmf on Z_37: almost all mass spread over the six symbols
      closest to zero, a thin floor elsewhere
  w2  tapered pmf on Z_37: mass decaying over the nine symbols closest to
      zero, a thin floor elsewhere (the raw taper values sum to 0.9999, so
      they are divided by their own sum)
  w3  skewed pmf on Z_7, swept over every code dimension
  w4  circular triangle pmf on Z_13: mass proportional to 7 minus the
      wrap-around distance from zero

plus two continuous ones: "triangle" (a tent with a small positive floor so
the density never touches zero) and "flat" (constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import (
    ContinuousTarget,
    DiscreteTarget,
    validate_continuous,
    validate_discrete,
)


@dataclass(frozen=True)
class BuiltinCase:
    """A packaged target with its protocol defaults."""

    n: int
    k_values: tuple[int, ...]
    target: DiscreteTarget
    seed: int

    @property
    def default_k(self) -> int:
        return self.k_values[0]


def _w1_probs() -> list[float]:
    hot = {0, 1, 2, 34, 35, 36}
    return [0.999 / 6 if w in hot else 0.001 / 31 for w in range(37)]


def _w2_probs() -> list[float]:
    raw = [0.001 / 28] * 37
    for w in (0, 1, 2, 35, 36):
        raw[w] = 0.1427
    for w in (3, 34):
        raw[w] = 0.0951
    for w in (4, 33):
        raw[w] = 0.0476
    total = math.fsum(raw)
    return [v / total for v in raw]


def _w3_probs() -> list[float]:
    probs = [0.05] * 7
    probs[1] = 0.6
    probs[4] = 0.15
    return probs


def _w4_probs() -> list[float]:
    return [(7 - min(y, 13 - y)) / 49 for y in range(13)]


# Each bundled target is built on demand: a command looks up one name.
_CASES = {
    "w1": lambda: BuiltinCase(2, (1,), validate_discrete(_w1_probs(), 37), seed=11),
    "w2": lambda: BuiltinCase(2, (1,), validate_discrete(_w2_probs(), 37), seed=12),
    "w3": lambda: BuiltinCase(6, (1, 2, 3, 4, 5), validate_discrete(_w3_probs(), 7), seed=13),
    "w4": lambda: BuiltinCase(6, (1,), validate_discrete(_w4_probs(), 13), seed=3),
}
_CONTINUOUS = {
    "triangle": lambda: validate_continuous(
        1.0, ((-1.0, 0.0625), (0.0, 0.9375), (1.0, 0.0625))
    ),
    "flat": lambda: validate_continuous(1.0, ((-1.0, 0.5), (1.0, 0.5))),
}


def builtin_cases() -> dict[str, BuiltinCase]:
    return {name: make() for name, make in _CASES.items()}


def continuous_builtins() -> dict[str, ContinuousTarget]:
    return {name: make() for name, make in _CONTINUOUS.items()}


def bundled(name: str) -> tuple[DiscreteTarget | ContinuousTarget, BuiltinCase | None] | None:
    """The bundled target called name and its case (None for a continuous
    target), building only that one; None when no bundled target has the name."""
    if name in _CASES:
        case = _CASES[name]()
        return case.target, case
    return (_CONTINUOUS[name](), None) if name in _CONTINUOUS else None
