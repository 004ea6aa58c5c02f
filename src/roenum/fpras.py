"""Atlantic City random-order enumeration on a randomized counter.

Same trie machinery as the FPTAS tier, with a rejection guard: the test is
skipped whenever the acceptance ratio falls outside (1/4, 1) -- evidence
of a failed counter call -- so completeness and the attempt bound hold
unconditionally. The paper keeps a prefix dictionary so that every drawn
estimate, and with it the partition of [0,1), stays fixed for the rest of
the session. A serial session needs none: the trie expands each node once
and keeps its pivot, so each estimate is drawn once and never redrawn.
The dictionary belongs to the master/slave pipeline (`parallel.py`),
whose tries share the master's boundary estimates through it. Under
either, a trie calls the counter once per distinct residual instance
(`trie.residual_counts`); an estimate reused for an equal residual is one
fewer call the failure budget must cover.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterator

from .fptas import bernoulli_less
from .problem import SelfReducibleProblem
from .record import EmissionRecord
from .trie import SelfReductionTrie, enumerate_trie, residual_counts

ZERO = Fraction(0)
ONE = Fraction(1)


class PrefixDictionary:
    """Write-once map from bit-string prefixes to count estimates.

    Entries are never overwritten, which is what makes the partition a
    fixed function of the dictionary contents. Preloaded entries (the
    boundary pieces a master hands to slaves) are tracked separately so
    tests can assert no slave recomputes them.
    """

    def __init__(self, preloaded: dict[str, int] | None = None):
        self.entries: dict[str, int] = dict(preloaded or {})
        self.preloaded = frozenset(self.entries)
        self.computed: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.midpoint_fallbacks = 0  # diagnostic: adversarial all-zero estimates

    def lookup(self, prefix: str, compute: Callable[[], int]) -> int:
        value = self.entries.get(prefix)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = compute()
        self.entries[prefix] = value
        self.computed.add(prefix)
        return value

    def piece(self, prefixes) -> dict[str, int]:
        return {p: self.entries[p] for p in prefixes if p in self.entries}


def fpras_trie(problem: SelfReducibleProblem, fpras: Callable, x,
               delta: Fraction, dictionary: PrefixDictionary | None = None,
               span: tuple[Fraction, Fraction] = (ZERO, ONE)
               ) -> SelfReductionTrie:
    """Trie whose split returns the two child estimates, each a randomized
    estimate at accuracy 1/(8*d0) and per-call failure budget
    2**-(d0+1) * delta; a residual instance the trie has already counted
    reuses its estimate.

    The trie expands each node once and keeps its pivot, so each estimate
    is drawn once and the partition is fixed for the life of the trie.
    A pipeline passes a `dictionary` so that tries in different places
    agree on their shared prefixes: the split asks it first, and it keeps
    every estimate the trie draws. When both estimates are 0 the split
    returns (1, 1), which puts the pivot at the node's midpoint and keeps
    the tiling intact.
    """
    d0 = problem.zeta(x)
    eps = Fraction(1, 8 * max(d0, 1))  # at d0 = 0 no split runs
    fail_budget = Fraction(delta, 1 << (d0 + 1))
    child = residual_counts(
        problem, x, lambda residual: fpras(residual, eps, fail_budget))

    def count(word: str) -> int:
        if dictionary is None:
            return child(word)
        return dictionary.lookup(word, lambda: child(word))

    def split(word: str) -> tuple[int, int]:
        n0, n1 = count(word + "0"), count(word + "1")
        if n0 + n1:
            return n0, n1
        if dictionary is not None:
            dictionary.midpoint_fallbacks += 1
        return 1, 1

    return SelfReductionTrie(d0, split, span)


def guarded_accept(rng: random.Random, ratio: Fraction) -> bool:
    """Rejection test behind the (1/4, 1) guard: a ratio outside the
    window means some counter call failed, and the candidate is emitted
    without the test."""
    a, b = ratio.numerator, ratio.denominator  # 1/4 < a/b < 1
    return not (b < 4 * a and a < b) or bernoulli_less(rng, ratio)


def root_estimate(problem: SelfReducibleProblem, fpras: Callable, x,
                  delta: Fraction) -> int:
    """Root count estimate at the same per-call failure budget the
    recursion uses (the 2**(d+1) total-call budget includes the root)."""
    d = problem.zeta(x)
    return fpras(x, Fraction(1, 3), Fraction(delta, 1 << (d + 1)))


def axa_enumerate(problem: SelfReducibleProblem, fpras: Callable, x,
                  delta: Fraction, rng: random.Random
                  ) -> Iterator[EmissionRecord]:
    """Emit every solution of x exactly once.

    Completeness is unconditional; with probability >= 1 - delta every
    estimate is accurate and the run is a Las Vegas uniform random-order
    enumeration.
    """
    delta = Fraction(delta)
    estimate = root_estimate(problem, fpras, x, delta)
    if estimate == 0:
        return
    yield from enumerate_trie(fpras_trie(problem, fpras, x, delta), rng,
                              Fraction(4, 9) / estimate, guarded_accept)
