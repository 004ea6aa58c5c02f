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
from fractions import Fraction
from typing import Callable, Iterator

from .problem import SelfReducibleProblem
from .record import EmissionRecord
from .trie import SelfReductionTrie, enumerate_trie, residual_counts


class EmptyBranch(Exception):
    """Both child estimates were 0 at positive depth: the approximate
    counter violated its contract (a true eps < 1 counter never maps a
    nonempty solution set to 0)."""


def bernoulli_less(rng: random.Random, threshold: Fraction) -> bool:
    """Exact Bernoulli(threshold) draw: compare a lazily generated uniform
    p in [0,1) against threshold bit by bit. No precision parameter, zero
    bias; terminates after 2 bits in expectation.

    The binary expansion of threshold = a/b is generated on the integers:
    doubling a/b and taking off its integer part is a = 2a, and a = a - b
    when a >= b."""
    a, b = threshold.numerator, threshold.denominator
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
    """Trie whose split returns the two child estimates, each taken at
    accuracy 1/(8*d0) with d0 the root depth, so each pivot divides its
    node in their ratio. The counter is deterministic, so every pivot is a
    constant of the instance, and it is called once per distinct residual.
    Its `descend(r)` is the interval access: f(r) and its interval."""
    d0 = problem.zeta(x)
    eps = Fraction(1, 8 * max(d0, 1))  # at d0 = 0 no split runs
    child = residual_counts(problem, x, lambda residual: fptas(residual, eps))

    def split(word: str) -> tuple[int, int]:
        n0, n1 = child(word + "0"), child(word + "1")
        if n0 + n1 == 0:
            raise EmptyBranch(f"both estimates 0 at prefix {word!r}")
        return n0, n1

    return SelfReductionTrie(d0, split)


def aia_enumerate(problem: SelfReducibleProblem, fptas: Callable, x,
                  rng: random.Random) -> Iterator[EmissionRecord]:
    """Emit every solution of x exactly once, uniformly over the solutions
    not yet emitted; expected attempts per emission < 4.

    The root estimate fixes the correction factor phi* = (4/9) / B(x, 1/3);
    each candidate is accepted with probability phi* / width, making the
    per-solution acceptance probability identical despite unequal widths.
    """
    root_estimate = fptas(x, Fraction(1, 3))
    if root_estimate == 0:
        return  # Sol(x) is empty: a 1/3-accurate counter returns 0 only then
    yield from enumerate_trie(fptas_trie(problem, fptas, x), rng,
                              Fraction(4, 9) / root_estimate, bernoulli_less)
