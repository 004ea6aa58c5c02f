"""Sampling-without-replacement baseline.

Generates candidates uniformly via exact-count random access and discards
repeats. Exists as the comparison target: after i emissions the expected
attempts for the next one grow hyperbolically as M / (M - i).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterator

from .exact import _unrank
from .problem import SelfReducibleProblem
from .record import EmissionRecord


def swor_enumerate(problem: SelfReducibleProblem, exact: Callable, x,
                   rng: random.Random) -> Iterator[EmissionRecord]:
    total = exact(x)
    d = problem.zeta(x)
    tick = 0  # attempts made in the session so far
    seen: set[str] = set()
    nominal = Fraction(1, total) if total else Fraction(0)
    while len(seen) < total:
        attempts = 0
        while True:
            attempts += 1
            tick += 1
            i = rng.randint(1, total)
            word = _unrank(problem, exact, x, i, d)
            if word not in seen:
                break
        seen.add(word)
        yield EmissionRecord(word, None, None, nominal, attempts, tick)
