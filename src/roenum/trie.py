"""The self-reduction trie shared by the FPTAS and FPRAS tiers.

A node stands for a solution prefix w and owns the interval of [0,1) that
the quasi-pivot partition gives w; its pivot splits that interval between
the children w0 and w1. Nodes are expanded lazily, the first time a descent
passes them, by a tier-supplied `split(prefix)` that returns the two child
estimates (n0, n1); the pivot gives child 0 the share n0/(n0 + n1) of the
node. A pivot is stored as a reduced integer pair (num, den), made with
one gcd, and a descent carries its node's bounds as such pairs and builds
the three `Fraction`s of its record (endpoints and width) only at the
leaf. Each node also holds the banned mass inside its interval, a
`Fraction`, so its available mass is its width minus that. Drawing a seed
from the unbanned part of [0,1) and walking it to its solution is
therefore one descent, and banning an emission adds its width along its
path. A node whose whole interval is banned drops its children, so a
session frees each subtree it has drained.

Both approximate tiers take their child estimates at accuracy 1/(8*d0)
through `residual_counts`, which counts each distinct residual instance
once per trie: on all bitstrings every node at one depth has the same
residual, and on a knapsack so do two prefixes with the same packed total.
Their root estimate is taken at `ROOT_EPS` = 1/3, and `enumerate_trie`
accepts at phi*/width, phi* = `correction_factor(root)`, handing the
tier's test that ratio as an integer pair.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator

from .problem import SelfReducibleProblem
from .record import EmissionRecord

ZERO = Fraction(0)
ONE = Fraction(1)


def residual_counts(problem: SelfReducibleProblem, x, count: Callable
                    ) -> Callable[[str], int]:
    """`child(word)`: count(problem.reduce(x, word), eps) at the split
    accuracy eps = 1/(8*d0), d0 = zeta(x), with count called once per
    distinct `problem.instance_key` of the residual.

    An instance key determines its instance. `verify_self_reducibility`
    checks this contract over every prefix of an instance: it fails when
    two residuals with equal keys have different solution sets. A
    deterministic counter is a function of the instance, so the memo
    changes no estimate; for a randomized one, reusing an estimate only
    lowers the number of calls the failure budget has to cover. The memo
    lives as long as the closure, that is as long as the trie that splits
    through it."""
    memo: dict = {}
    eps = Fraction(1, 8 * max(problem.zeta(x), 1))  # at d0 = 0 no split runs

    def child(word: str) -> int:
        residual = problem.reduce(x, word)
        key = problem.instance_key(residual)
        value = memo.get(key)
        if value is None:
            value = memo[key] = count(residual, eps)
        return value

    return child


class NonTerminating(Exception):
    """Attempt watchdog fired; signals a broken oracle."""


class _Node:
    __slots__ = ("pivot", "left", "right", "banned")

    def __init__(self):
        # the pivot num/den as a reduced pair, den > 0; None until expanded
        self.pivot: tuple[int, int] | None = None
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.banned = ZERO  # banned mass inside the node's interval


def _dead(node: _Node) -> bool:
    # fully banned: a banned leaf, or a node already pruned or clipped away
    return bool(node.banned) and node.left is None


class SelfReductionTrie:
    """Lazily expanded self-reduction tree of depth `depth` over [0,1).

    The mass outside `span` starts banned. A span end must be an endpoint
    of some solution's interval (as the master's partition guarantees);
    clipping expands only the nodes that straddle an end.
    """

    def __init__(self, depth: int, split: Callable[[str], tuple[int, int]],
                 span: tuple[Fraction, Fraction] = (ZERO, ONE)):
        self.depth = depth
        self.split = split
        self.root = _Node()
        self.available = ONE
        if span != (ZERO, ONE):  # the whole of [0,1) clips nothing
            self._clip(self.root, "", ZERO, ONE, *span)
            self.available = ONE - self.root.banned

    def _expand(self, node: _Node, word: str, a: int, b: int, c: int,
                d: int) -> tuple[int, int]:
        # low + n0/t * (high - low) = (a*d*n1 + c*b*n0) / (b*d*t) with
        # low = a/b, high = c/d and t = n0 + n1: one gcd reduces it
        n0, n1 = self.split(word)
        num, den = a * d * n1 + c * b * n0, b * d * (n0 + n1)
        g = gcd(num, den)
        node.pivot = pivot = (num // g, den // g)
        node.left, node.right = _Node(), _Node()
        return pivot

    def _clip(self, node: _Node, word: str, low: Fraction, high: Fraction,
              lo: Fraction, hi: Fraction):
        if high <= lo or hi <= low:
            node.banned = high - low
        elif low < lo or hi < high:
            if len(word) == self.depth:
                raise ValueError(f"span end inside the interval of {word!r}")
            pivot = Fraction(*self._expand(node, word, *low.as_integer_ratio(),
                                           *high.as_integer_ratio()))
            self._clip(node.left, word + "0", low, pivot, lo, hi)
            self._clip(node.right, word + "1", pivot, high, lo, hi)
            node.banned = node.left.banned + node.right.banned

    def descend(self, y: Fraction) -> EmissionRecord:
        """The solution whose interval holds the y-th unit of available
        mass, for y in [0, available). On an unbanned trie y is the seed r
        itself and the result is f(r).

        The walk carries r = y + (banned mass left of the current node),
        which ends as the point of [0,1) that y stands for: the left child
        holds it exactly when r plus the left child's banned mass is below
        the pivot, and passing the left child adds that mass to r. The
        walk compares r's pair with the pivot pair by cross-multiplication
        and keeps the node's bounds low = a/b and high = c/d as pivot
        pairs; the record's endpoints and its width (cb - ad)/(bd) become
        `Fraction`s once, at the leaf.
        """
        node, word, r = self.root, "", y
        rn, rd = y.numerator, y.denominator
        a, b, c, d = 0, 1, 1, 1
        for _ in range(self.depth):
            pivot = node.pivot
            if pivot is None:
                pivot = self._expand(node, word, a, b, c, d)
            pn, pd = pivot
            left = node.left
            banned = left.banned
            if banned:
                shifted = r + banned
                sn, sd = shifted.numerator, shifted.denominator
            else:
                shifted, sn, sd = r, rn, rd
            if sn * pd < pn * sd:
                node, word, c, d = left, word + "0", pn, pd
            else:
                node, word, a, b = node.right, word + "1", pn, pd
                r, rn, rd = shifted, sn, sd
        return EmissionRecord(word, Fraction(a, b), Fraction(c, d),
                              Fraction(c * b - a * d, b * d))

    def ban(self, record: EmissionRecord):
        """Add the mass of a drawn solution along its path, and drop the
        children of every node left without available mass."""
        path = [self.root]
        for bit in record.solution:
            if _dead(path[-1]):
                break
            path.append(path[-1].left if bit == "0" else path[-1].right)
        if _dead(path[-1]):
            raise ValueError(f"{record.solution!r} is already banned")
        width = record.width
        for node in path:
            node.banned = node.banned + width if node.banned else width
        self.available -= width
        for node in reversed(path[:-1]):
            if not (_dead(node.left) and _dead(node.right)):
                break
            node.left = node.right = None


ROOT_EPS = Fraction(1, 3)  # accuracy of the root estimate B(x, 1/3)


def correction_factor(root: int) -> Fraction:
    """phi* = (4/9) / B(x, 1/3), B(x, 1/3) = root > 0."""
    return Fraction(4, 9) / root


def enumerate_trie(trie: SelfReductionTrie, rng: random.Random,
                   phi_star: Fraction,
                   accept: Callable[[random.Random, int, int], bool]
                   ) -> Iterator[EmissionRecord]:
    """Emit every unbanned solution of the trie once, banning each.

    An attempt draws y = u * available for a uniform u = k / 2^(d + 128),
    built as one `Fraction`, descends to its solution and keeps it when
    accept(rng, a, b) holds for the unreduced pair a/b = phi_star / width.
    """
    d = max(trie.depth, 1)
    bits = d + 128
    cap = 64 * d
    num, den = phi_star.numerator, phi_star.denominator
    tick = 0  # attempts made in the session so far
    while trie.available > 0:
        attempts = 0
        while True:
            attempts += 1
            if attempts > cap:
                raise NonTerminating(f"{cap} attempts without an emission")
            tick += 1
            available = trie.available
            record = trie.descend(Fraction(
                rng.getrandbits(bits) * available.numerator,
                available.denominator << bits))
            width = record.width
            if accept(rng, num * width.denominator, den * width.numerator):
                break
        trie.ban(record)
        record.attempts, record.tick = attempts, tick
        yield record
