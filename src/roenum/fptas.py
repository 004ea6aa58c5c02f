"""Las Vegas random-order enumeration driven by a deterministic
approximate counter.

The interval access maps a seed r in [0,1) to a solution and its interval
by recursive quasi-pivot partitioning; the driver samples seeds from the
not-yet-banned part of [0,1) and applies an exact rejection test so every
emission is uniform over the remaining solutions. Both run on the
self-reduction trie (`trie.py`), split by the counter's estimates. The
counter is a function of the instance, so it is called once per distinct
residual instance of a trie (`trie.residual_counts`).
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from .problem import SelfReducibleProblem
from .record import EmissionRecord
from .trie import (ROOT_EPS, SelfReductionTrie, correction_factor,
                   enumerate_trie, residual_counts)


class EmptyBranch(Exception):
    """Both child estimates were 0 at positive depth: the approximate
    counter violated its contract (a true eps < 1 counter never maps a
    nonempty solution set to 0)."""


def bernoulli_less(rng: random.Random, a: int, b: int) -> bool:
    """Exact Bernoulli(a/b) draw for b > 0: compare a lazily generated
    uniform p in [0,1) against the threshold a/b bit by bit. No precision
    parameter, zero bias; terminates after 2 bits in expectation.

    The binary expansion of a/b is generated on the integers: doubling a/b
    and taking off its integer part is a = 2a, and a = a - b when a >= b.
    The pair need not be reduced: k*a/(k*b) gives the same decision from
    the same random bits."""
    if a <= 0:
        return False
    if a >= b:
        return True
    while True:
        a <<= 1
        if a >= b:
            t_bit = 1
            a -= b
        else:
            t_bit = 0
        p_bit = rng.getrandbits(1)
        if p_bit != t_bit:
            return p_bit < t_bit
        if a == 0:
            # threshold's remaining expansion is all zeros: p >= threshold
            return False


def fptas_trie(problem: SelfReducibleProblem, fptas: Callable, x
               ) -> SelfReductionTrie:
    """Trie whose split returns the two child estimates at the split
    accuracy (`trie.residual_counts`), so each pivot divides its node in
    their ratio. The counter is deterministic, so every pivot is a
    constant of the instance, and it is called once per distinct residual.
    Its `descend(r)` is the interval access: f(r) and its interval."""
    child = residual_counts(problem, x, fptas)

    def split(word: str) -> tuple[int, int]:
        n0, n1 = child(word + "0"), child(word + "1")
        if n0 + n1 == 0:
            raise EmptyBranch(f"both estimates 0 at prefix {word!r}")
        return n0, n1

    return SelfReductionTrie(problem.zeta(x), split)


def aia_enumerate(problem: SelfReducibleProblem, fptas: Callable, x,
                  rng: random.Random) -> Iterator[EmissionRecord]:
    """Emit every solution of x exactly once, uniformly over the solutions
    not yet emitted; expected attempts per emission < 4.

    The root estimate fixes the correction factor phi* = (4/9) / B(x, 1/3);
    each candidate is accepted with probability phi* / width, making the
    per-solution acceptance probability identical despite unequal widths.
    """
    root = fptas(x, ROOT_EPS)
    if root == 0:
        return  # Sol(x) is empty: a 1/3-accurate counter returns 0 only then
    yield from enumerate_trie(fptas_trie(problem, fptas, x), rng,
                              correction_factor(root), bernoulli_less)
