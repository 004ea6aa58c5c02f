"""Atlantic City random-order enumeration on a randomized counter.

Same trie machinery as the FPTAS tier, with a rejection guard: the test is
skipped whenever the acceptance ratio falls outside (1/4, 1) -- evidence
of a failed counter call -- so completeness and the attempt bound hold
unconditionally. The trie expands each node once and keeps its pivot, so
each estimate is drawn once and the partition of [0,1) stays fixed for
the session: a serial session needs none of the paper's prefix
dictionary, which belongs to the master/slave pipeline (`parallel.py`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterator

from .fptas import bernoulli_less
from .problem import SelfReducibleProblem
from .record import EmissionRecord
from .trie import (ONE, ROOT_EPS, ZERO, SelfReductionTrie,
                   correction_factor, enumerate_trie, residual_counts)


class PrefixDictionary:
    """Write-once map from bit-string prefixes to count estimates.

    Entries are never overwritten, which is what makes the partition a
    fixed function of the dictionary contents. It stores the entries, the
    keys it was preloaded with (the boundary pieces a master hands to
    slaves), its hits and its midpoint fallbacks; the keys it computed
    itself and its misses are derived from the first two, so tests can
    assert no slave recomputes a preloaded entry.
    """

    def __init__(self, preloaded: dict[str, int] | None = None):
        self.entries: dict[str, int] = dict(preloaded or {})
        self.preloaded = frozenset(self.entries)
        self.hits = 0
        self.midpoint_fallbacks = 0  # diagnostic: adversarial all-zero estimates

    @property
    def computed(self) -> set[str]:
        """The keys of the entries this dictionary computed itself."""
        return self.entries.keys() - self.preloaded

    @property
    def misses(self) -> int:
        """Lookups whose `compute` returned: one per computed entry."""
        return len(self.entries) - len(self.preloaded)

    def lookup(self, prefix: str, compute: Callable[[], int]) -> int:
        value = self.entries.get(prefix)
        if value is not None:
            self.hits += 1
            return value
        value = self.entries[prefix] = compute()
        return value

    def piece(self, prefixes) -> dict[str, int]:
        return {p: self.entries[p] for p in prefixes if p in self.entries}


def call_budget(problem: SelfReducibleProblem, x, delta: Fraction
                ) -> Fraction:
    """Failure budget delta / 2**(d0+1), d0 = zeta(x), of each counter
    call: a session makes at most 2**(d0+1), the root's included."""
    return Fraction(delta) / (2 << problem.zeta(x))


def fpras_trie(problem: SelfReducibleProblem, fpras: Callable, x,
               delta: Fraction, dictionary: PrefixDictionary | None = None,
               span: tuple[Fraction, Fraction] = (ZERO, ONE)
               ) -> SelfReductionTrie:
    """Trie whose split returns the two child estimates, each a randomized
    estimate at the split accuracy (`trie.residual_counts`) and the
    per-call failure budget (`call_budget`); a residual instance the trie
    has already counted reuses its estimate.

    The trie expands each node once and keeps its pivot, so each estimate
    is drawn once and the partition is fixed for the life of the trie.
    A pipeline passes a `dictionary` so that tries in different places
    agree on their shared prefixes: the split asks it first, and it keeps
    every estimate the trie draws. When both estimates are 0 the split
    returns (1, 1), which puts the pivot at the node's midpoint and keeps
    the tiling intact.
    """
    budget = call_budget(problem, x, delta)
    child = residual_counts(
        problem, x, lambda residual, eps: fpras(residual, eps, budget))
    count = child if dictionary is None else (
        lambda word: dictionary.lookup(word, lambda: child(word)))

    def split(word: str) -> tuple[int, int]:
        n0, n1 = count(word + "0"), count(word + "1")
        if n0 + n1:
            return n0, n1
        if dictionary is not None:
            dictionary.midpoint_fallbacks += 1
        return 1, 1

    return SelfReductionTrie(problem.zeta(x), split, span)


def guarded_accept(rng: random.Random, a: int, b: int) -> bool:
    """Rejection test of the ratio a/b, b > 0, behind the (1/4, 1) guard:
    a ratio outside the window means some counter call failed, and the
    candidate is emitted without the test."""
    return not (b < 4 * a and a < b) or bernoulli_less(rng, a, b)


def root_estimate(problem: SelfReducibleProblem, fpras: Callable, x,
                  delta: Fraction) -> int:
    """Root count estimate at accuracy 1/3 and the per-call failure
    budget the recursion uses."""
    return fpras(x, ROOT_EPS, call_budget(problem, x, delta))


def axa_enumerate(problem: SelfReducibleProblem, fpras: Callable, x,
                  delta: Fraction, rng: random.Random
                  ) -> Iterator[EmissionRecord]:
    """Emit every solution of x exactly once.

    Completeness is unconditional; with probability >= 1 - delta every
    estimate is accurate and the run is a Las Vegas uniform random-order
    enumeration.
    """
    root = root_estimate(problem, fpras, x, delta)
    if root == 0:
        return
    yield from enumerate_trie(fpras_trie(problem, fpras, x, delta), rng,
                              correction_factor(root), guarded_accept)
