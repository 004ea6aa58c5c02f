"""Atlantic City random-order enumeration on a randomized counter.

Same interval machinery as the FPTAS tier, with two additions: a prefix
dictionary memoizes every estimate so the induced partition of [0,1) is
consistent across all calls in a session, and the rejection guard skips
the test whenever the acceptance ratio falls outside (1/4, 1) -- evidence
of a failed counter call -- so completeness and the attempt bound hold
unconditionally. Behind the dictionary, a trie calls the counter once per
distinct residual instance (`trie.residual_counts`); an estimate reused
for an equal residual is one fewer call the failure budget must cover.
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
QUARTER = Fraction(1, 4)


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
               delta: Fraction, dictionary: PrefixDictionary,
               span: tuple[Fraction, Fraction] = (ZERO, ONE)
               ) -> SelfReductionTrie:
    """Trie whose split returns the two child estimates, each a memoized
    randomized estimate.

    On a dictionary miss the estimate is computed at accuracy 1/(8*d0) and
    per-call failure budget 2**-(d0+1) * delta, then frozen, so every pivot
    is a constant of the session; a miss whose residual instance the trie
    has already counted reuses that estimate. When both estimates are 0
    the split returns (1, 1), which puts the pivot at the node's midpoint
    and keeps the tiling intact. Tries built on one dictionary share every pivot.
    """
    d0 = problem.zeta(x)
    eps = Fraction(1, 8 * max(d0, 1))  # at d0 = 0 no split runs
    fail_budget = Fraction(delta, 1 << (d0 + 1))
    child = residual_counts(
        problem, x, lambda residual: fpras(residual, eps, fail_budget))

    def split(word: str) -> tuple[int, int]:
        w0, w1 = word + "0", word + "1"
        n0 = dictionary.lookup(w0, lambda: child(w0))
        n1 = dictionary.lookup(w1, lambda: child(w1))
        if n0 + n1 == 0:
            dictionary.midpoint_fallbacks += 1
            return 1, 1
        return n0, n1

    return SelfReductionTrie(d0, split, span)


def guarded_accept(rng: random.Random, ratio: Fraction) -> bool:
    """Rejection test behind the (1/4, 1) guard: a ratio outside the
    window means some counter call failed, and the candidate is emitted
    without the test."""
    return not (QUARTER < ratio < ONE) or bernoulli_less(rng, ratio)


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
    trie = fpras_trie(problem, fpras, x, delta, PrefixDictionary())
    yield from enumerate_trie(trie, rng, Fraction(4, 9) / estimate,
                              guarded_accept)
