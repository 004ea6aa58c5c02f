"""Self-reducible problem abstraction and brute-force oracles.

Solutions are bit strings over {0, 1}, represented as plain Python strings
of '0'/'1' characters; the empty string is the length-0 solution.
Elsewhere in the package, interval endpoints, widths and banned masses
are `fractions.Fraction`s, so endpoint comparisons are exact; the trie's
pivots and the bounds a descent carries, the acceptance test, the
master's weighted pick and the simulated oracles work on integer
numerators and denominators instead, comparing by cross-multiplication.
"""

from __future__ import annotations

import itertools


class BudgetExceeded(Exception):
    """Raised when a brute-force check would exceed its configured budget."""


class SelfReducibleProblem:
    """Base class for a self-reducible enumeration problem.

    Subclasses supply:
      zeta(x)          -> solution length for instance x
      reduce(x, w)     -> residual instance after fixing prefix w
      membership(x, w) -> whether w is a solution of x
      base_check(x)    -> for zeta(x) == 0, whether Sol(x) = {""}
      size(x)          -> encoding size of x (shrinks under reduce)
      instance_key(x)  -> stable hashable key that determines x: equal
                          keys mean equal instances. The approximate tiers
                          count each key once per trie, and the simulated
                          oracles draw their noise and failures from it;
                          `verify_self_reducibility` checks the contract.
    """

    name = "abstract"

    def zeta(self, x) -> int:
        raise NotImplementedError

    def reduce(self, x, word: str):
        raise NotImplementedError

    def membership(self, x, word: str) -> bool:
        raise NotImplementedError

    def base_check(self, x) -> bool:
        raise NotImplementedError

    def size(self, x) -> int:
        raise NotImplementedError

    def instance_key(self, x) -> tuple:
        raise NotImplementedError


def brute_force_solutions(problem: SelfReducibleProblem, x,
                          max_zeta: int = 22) -> set[str]:
    """Ground-truth solution set by exhaustive membership testing.

    Independent of every counting/enumeration path in the package; this is
    the oracle the test suite compares against.
    """
    d = problem.zeta(x)
    if d > max_zeta:
        raise BudgetExceeded(f"zeta={d} exceeds brute-force limit {max_zeta}")
    if d == 0:
        return {""} if problem.base_check(x) else set()
    out = set()
    for bits in itertools.product("01", repeat=d):
        w = "".join(bits)
        if problem.membership(x, w):
            out.add(w)
    return out


def verify_self_reducibility(problem: SelfReducibleProblem, x,
                             max_count: int = 1 << 20) -> bool:
    """Exhaustively check the self-reducibility contract on instance x.

    Verifies, for every prefix w with |w| <= zeta(x):
      - zeta(reduce(x, w)) == max(zeta(x) - |w|, 0)
      - size(reduce(x, w)) <= size(x)
      - Sol(reduce(x, w)) == {w' : w + w' in Sol(x)}
      - base_check agrees with membership on fully reduced instances
      - residuals with equal instance_key have equal solution sets, the
        key contract `trie.residual_counts` relies on

    Raises BudgetExceeded once total membership tests pass max_count.
    """
    d = problem.zeta(x)
    budget = [max_count]
    by_key: dict = {}  # instance_key -> solutions of the first such residual

    def spend(n: int):
        budget[0] -= n
        if budget[0] < 0:
            raise BudgetExceeded("verification budget exhausted")

    spend(1 << d)
    sol = brute_force_solutions(problem, x)
    if any(len(w) != d for w in sol):
        return False

    for k in range(d + 1):
        for bits in itertools.product("01", repeat=k):
            w = "".join(bits)
            sub = problem.reduce(x, w)
            if problem.zeta(sub) != max(d - k, 0):
                return False
            if problem.size(sub) > problem.size(x):
                return False
            spend(1 << (d - k))
            sub_sol = brute_force_solutions(problem, sub)
            expected = {v[k:] for v in sol if v.startswith(w)}
            if sub_sol != expected:
                return False
            if by_key.setdefault(problem.instance_key(sub), sub_sol) != sub_sol:
                return False
            if problem.zeta(sub) == 0 and problem.base_check(sub) != ("" in sub_sol):
                return False
    return True
