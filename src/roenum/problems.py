"""Concrete problems and simulated counting oracles.

Two problems ship: the knapsack packing-enumeration problem (bit i = 1
means item i is packed) and the analytic all-bitstrings problem. The
approximate counters are simulated on top of the exact counter: the FPTAS
perturbs the exact count by deterministic hash-driven noise inside the
eps band, and the FPRAS additionally injects out-of-band failures at a
hash-driven pseudo-probability.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .problem import BudgetExceeded, CountingOracles, SelfReducibleProblem


# ---------------------------------------------------------------------------
# All bit strings of length n: every word is a solution.

class AllBitstrings(SelfReducibleProblem):
    name = "all-bitstrings"

    def zeta(self, x: int) -> int:
        return x

    def reduce(self, x: int, word: str) -> int:
        return max(x - len(word), 0)

    def membership(self, x: int, word: str) -> bool:
        return len(word) == x

    def base_check(self, x: int) -> bool:
        return True

    def size(self, x: int) -> int:
        return x + 1

    def instance_key(self, x: int) -> tuple:
        return ("ab", x)

    def exact_count(self, x: int) -> int:
        return 1 << x


# ---------------------------------------------------------------------------
# Knapsack packing enumeration.

@dataclass(frozen=True)
class KnapsackInstance:
    """Residual knapsack instance; capacity None is the infeasible sentinel
    (solution set empty, zeta still counts the remaining items)."""

    capacity: int | None
    sizes: tuple[int, ...]


class Knapsack(SelfReducibleProblem):
    name = "knapsack"

    def __init__(self, budget: int = 200_000_000):
        self.budget = budget  # cap on n * C for the counting DP
        self._count_cache: dict[tuple, int] = {}

    def zeta(self, x: KnapsackInstance) -> int:
        return len(x.sizes)

    def reduce(self, x: KnapsackInstance, word: str) -> KnapsackInstance:
        k = min(len(word), len(x.sizes))
        rest = x.sizes[k:]
        if x.capacity is None:
            return KnapsackInstance(None, rest)
        cap = x.capacity
        for i, b in enumerate(word[:k]):
            if b == "1":
                cap -= x.sizes[i]
        if cap < 0:
            return KnapsackInstance(None, rest)
        return KnapsackInstance(cap, rest)

    def membership(self, x: KnapsackInstance, word: str) -> bool:
        if len(word) != len(x.sizes) or x.capacity is None:
            return False
        total = sum(s for s, b in zip(x.sizes, word) if b == "1")
        return total <= x.capacity

    def base_check(self, x: KnapsackInstance) -> bool:
        return x.capacity is not None

    def size(self, x: KnapsackInstance) -> int:
        cap = -1 if x.capacity is None else x.capacity
        return len(x.sizes) + cap + 2

    def instance_key(self, x: KnapsackInstance) -> tuple:
        return ("ks", x.capacity, x.sizes)

    def exact_count(self, x: KnapsackInstance) -> int:
        """Number of packings, by DP over residual capacity (O(n*C))."""
        if x.capacity is None:
            return 0
        key = (x.capacity, x.sizes)
        hit = self._count_cache.get(key)
        if hit is not None:
            return hit
        n, cap = len(x.sizes), x.capacity
        if cap >= sum(x.sizes):  # every subset fits: no DP over capacity
            self._count_cache[key] = 1 << n
            return 1 << n
        if n * max(cap, 1) > self.budget:
            raise BudgetExceeded(f"n*C = {n * cap} over DP budget")
        # table[c] = packings of a prefix of items with total size exactly c
        table = [0] * (cap + 1)
        table[0] = 1
        for s in x.sizes:
            if s <= cap:
                for c in range(cap, s - 1, -1):
                    table[c] += table[c - s]
        result = sum(table)
        self._count_cache[key] = result
        return result


def generate_knapsack(n: int, seed: int, capacity_frac: float = 0.25) -> KnapsackInstance:
    """Seeded random instance: sizes in [1, 2n], capacity ~ frac of total."""
    rng = random.Random(seed)
    sizes = tuple(rng.randint(1, 2 * n) for _ in range(n))
    cap = max(1, int(sum(sizes) * capacity_frac))
    return KnapsackInstance(cap, sizes)


# ---------------------------------------------------------------------------
# Simulated approximate counters.

@dataclass
class SimulatedOracleConfig:
    """Controls the simulated FPTAS/FPRAS built on the exact counter.

    noise_mode: "none" (return exact), "hash" (hash-driven point inside the
    eps band) or "extreme" (hash-picked band endpoint: worst-case noise).
    nonce: per-session salt for FPRAS failure draws, so failures vary
    across sessions while staying deterministic within one.
    """

    noise_mode: str = "none"
    seed: int = 0
    failure_distortion: int = 2
    nonce: int = 0
    forced_failures: frozenset = frozenset()  # instance keys that always fail


def _hash_unit(*parts) -> int:
    """Deterministic pseudo-uniform 64-bit integer h from the given parts,
    standing for the point h / 2**64 of [0, 1)."""
    h = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(h, "big")


def _band(exact: int, eps: Fraction) -> tuple[int, int]:
    """(ceil(exact*(1-eps)), floor(exact*(1+eps))), each at least 1, in
    integer arithmetic on eps = p/q."""
    p, q = eps.numerator, eps.denominator
    lo = -(-exact * (q - p) // q)
    hi = exact * (q + p) // q
    return max(lo, 1), max(hi, 1)


def _as_fraction(v) -> Fraction:
    # exact type: the repr of a subclass would change the hash input
    return v if type(v) is Fraction else Fraction(v)


class SimulatedOracles:
    """Exact / FPTAS / FPRAS closures over a problem's exact counter.

    The FPTAS is a mathematical function of (instance, eps): identical calls
    always return identical values, as the consistency arguments require.
    """

    def __init__(self, problem: SelfReducibleProblem,
                 config: SimulatedOracleConfig | None = None):
        self.problem = problem
        self.config = config or SimulatedOracleConfig()
        self.calls: dict[str, int] = {"exact": 0, "fptas": 0, "fpras": 0}
        self.failures = 0

    def exact(self, x) -> int:
        self.calls["exact"] += 1
        return self.problem.exact_count(x)

    def fptas(self, x, eps: Fraction) -> int:
        self.calls["fptas"] += 1
        return self._estimate(x, _as_fraction(eps),
                              self.problem.exact_count(x))

    def fpras(self, x, eps: Fraction, delta_fail: Fraction) -> int:
        self.calls["fpras"] += 1
        eps = _as_fraction(eps)
        delta_fail = _as_fraction(delta_fail)
        exact = self.problem.exact_count(x)
        key = self.problem.instance_key(x)
        fail = key in self.config.forced_failures
        if not fail and delta_fail > 0:
            h = _hash_unit("fail", key, eps, delta_fail,
                           self.config.seed, self.config.nonce)
            # h / 2**64 < delta_fail
            fail = h * delta_fail.denominator < delta_fail.numerator << 64
        if fail:
            self.failures += 1
            return exact * self.config.failure_distortion
        return self._estimate(x, eps, exact)

    def _estimate(self, x, eps: Fraction, exact: int) -> int:
        """The simulated FPTAS value for x, given its exact count."""
        if exact == 0:
            return 0
        mode = self.config.noise_mode
        if mode == "none":
            return exact
        lo, hi = _band(exact, eps)
        if mode == "hash":
            h = _hash_unit("noise", self.problem.instance_key(x), eps,
                           self.config.seed)
            return lo + (h * (hi - lo + 1) >> 64)  # lo + floor(h/2**64 * span)
        if mode == "extreme":
            h = _hash_unit("edge", self.problem.instance_key(x), eps,
                           self.config.seed)
            return hi if h >= 1 << 63 else lo  # h / 2**64 >= 1/2
        raise ValueError(f"unknown noise_mode {mode!r}")

    def oracles(self) -> CountingOracles:
        return CountingOracles(exact=self.exact, fptas=self.fptas,
                               fpras=self.fpras)


# ---------------------------------------------------------------------------
# Registry and instance files.

PROBLEMS = {
    "all-bitstrings": AllBitstrings,
    "knapsack": Knapsack,
}


def parse_instance(text: str):
    """Parse an instance file; returns (problem, instance).

    Format: `allbits <n>` on one line, or `knapsack <n> <C>` followed by a
    line with the n sizes.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty instance file")
    head = lines[0].split()
    if head[0] == "allbits":
        if len(head) != 2:
            raise ValueError("expected `allbits <n>`")
        return AllBitstrings(), int(head[1])
    if head[0] == "knapsack":
        if len(head) != 3 or len(lines) < 2:
            raise ValueError("expected `knapsack <n> <C>` and a line of sizes")
        n, cap = int(head[1]), int(head[2])
        sizes = tuple(int(t) for t in lines[1].split())
        if len(sizes) != n:
            raise ValueError(f"expected {n} sizes, got {len(sizes)}")
        return Knapsack(), KnapsackInstance(cap, sizes)
    raise ValueError(f"unknown problem {head[0]!r}")


def format_instance(problem: SelfReducibleProblem, x) -> str:
    if isinstance(problem, AllBitstrings):
        return f"allbits {x}\n"
    if isinstance(problem, Knapsack):
        sizes = " ".join(str(s) for s in x.sizes)
        return f"knapsack {len(x.sizes)} {x.capacity}\n{sizes}\n"
    raise ValueError(f"cannot format {problem!r}")
