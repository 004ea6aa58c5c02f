"""Random-order enumeration with an exact counter.

Random access by lexicographic index drives the enumeration; a sparse
Fisher-Yates shuffle supplies the indices in uniformly random order with
O(1) work and O(draws) memory, so the full index range never has to be
materialized even when |Sol(x)| is astronomical.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from .problem import SelfReducibleProblem


class SparsePermutation:
    """Lazy Fisher-Yates over N[1, total]: each draw is uniform over the
    not-yet-drawn values; only displaced slots are stored."""

    def __init__(self, total: int, rng: random.Random):
        self.total = total
        self.rng = rng
        self.next_slot = 1
        self.displaced: dict[int, int] = {}

    def __iter__(self) -> Iterator[int]:
        return self

    def __next__(self) -> int:
        k = self.next_slot
        if k > self.total:
            raise StopIteration
        j = self.rng.randint(k, self.total)
        value = self.displaced.pop(j, j)
        if j != k:
            self.displaced[j] = self.displaced.pop(k, k)
        self.next_slot = k + 1
        return value


def raccess(problem: SelfReducibleProblem, exact: Callable, x, i: int
            ) -> str | None:
    """i-th solution of x in lexicographic order (1-based), or None if
    i > |Sol(x)|."""
    if i < 1 or i > exact(x):
        return None
    return _unrank(problem, exact, x, i, problem.zeta(x))


def _unrank(problem: SelfReducibleProblem, exact: Callable, x, i: int,
            d: int) -> str:
    """The i-th solution of x for an i in [1, |Sol(x)|], d = zeta(x).

    Recursive rule: with n0 = exact(reduce(x, '0')), descend on bit 0 when
    i <= n0, else on bit 1 with index i - n0. One count per bit; the
    caller vouches for the range, so the root is not counted again.
    """
    bits = []
    while d > 0:
        sub0 = problem.reduce(x, "0")
        n0 = exact(sub0)
        if i <= n0:
            bits.append("0")
            x = sub0
        else:
            bits.append("1")
            i -= n0
            x = problem.reduce(x, "1")
        d -= 1
    return "".join(bits)


def ara_enumerate(problem: SelfReducibleProblem, exact: Callable, x,
                  rng: random.Random) -> Iterator[str]:
    """Emit every solution of x exactly once, each uniform over the
    solutions not yet emitted."""
    total = exact(x)
    d = problem.zeta(x)
    for i in SparsePermutation(total, rng):
        yield _unrank(problem, exact, x, i, d)
