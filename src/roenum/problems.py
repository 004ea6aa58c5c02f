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
from dataclasses import dataclass
from fractions import Fraction

from .problem import BudgetExceeded, SelfReducibleProblem


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
    """Residual knapsack instance; a negative capacity is infeasible
    (solution set empty, zeta still counts the remaining items)."""

    capacity: int
    sizes: tuple[int, ...]


class Knapsack(SelfReducibleProblem):
    name = "knapsack"

    def __init__(self, budget: int = 200_000_000):
        self.budget = budget  # cap on the bits of the one chain held
        # the suffix chain of the last root built, at capacity _cap with
        # slot width _b: sizes suffix -> polynomial P
        self._chain: dict[tuple, int] = {}
        self._cap = self._b = 0

    def zeta(self, x: KnapsackInstance) -> int:
        return len(x.sizes)

    def reduce(self, x: KnapsackInstance, word: str) -> KnapsackInstance:
        k = min(len(word), len(x.sizes))
        cap = x.capacity
        for i, b in enumerate(word[:k]):
            if b == "1":
                cap -= x.sizes[i]
        return KnapsackInstance(cap, x.sizes[k:])

    def membership(self, x: KnapsackInstance, word: str) -> bool:
        if len(word) != len(x.sizes):
            return False
        total = sum(s for s, b in zip(x.sizes, word) if b == "1")
        return total <= x.capacity

    def base_check(self, x: KnapsackInstance) -> bool:
        return x.capacity >= 0

    def size(self, x: KnapsackInstance) -> int:
        return len(x.sizes) + max(x.capacity, -1) + 2

    def instance_key(self, x: KnapsackInstance) -> tuple:
        return ("ks", x.capacity, x.sizes)

    def exact_count(self, x: KnapsackInstance) -> int:
        """Number of packings: subsets of the (non-negative) sizes whose
        total is at most the capacity.

        Slot c, b bits wide, of a polynomial P holds the number of subsets
        of a sizes suffix with total exactly c. The first count on sizes
        S = (s_0, ..., s_{n-1}) with capacity C builds the chain of every
        suffix's polynomial in one backward pass of n shift-adds, with
        b = n+2 and P_n = 1 (the empty packing):
        P_k = (P_{k+1} + (P_{k+1} << b*s_k)) cut back to C+1 slots, and
        stores P_k under the suffix S[k:]. No slot overflows into the next,
        since it counts at most 2**n < 2**b subsets.

        A residual (a suffix S[k:], capacity c <= C) is then a read: cut
        P_k to its low c+1 slots and sum them as that integer modulo
        2**b - 1 (2**b = 1 there), which is exact because the sum is at
        most 2**n < 2**b - 1. Any other instance (a sizes tuple the chain
        does not hold, or a capacity above C) builds its own chain in
        place of the one held, unless every subset fits.

        Memory: a Knapsack holds one root's chain, at most
        (n+1)*(C+1)*(n+2) bits, about 0.55 MB at n = 64, C = 1030. A build
        that would hold more than `budget` bits (25 MB at the default
        2*10**8) raises BudgetExceeded before it allocates. An instance
        where every subset fits counts 2**n with no chain.
        """
        cap = x.capacity
        if cap < 0:
            return 0
        poly = self._chain.get(x.sizes)
        if poly is None or self._cap < cap:
            if cap >= sum(x.sizes) and min(x.sizes, default=0) >= 0:
                return 1 << len(x.sizes)  # every subset fits: no chain
            poly = self._build_chain(x.sizes, cap)
        b = self._b
        return (poly & ((1 << b * (cap + 1)) - 1)) % ((1 << b) - 1)

    def _build_chain(self, sizes: tuple, cap: int) -> int:
        """Replace the chain with every suffix polynomial of `sizes` at
        capacity `cap` (see exact_count) and return that of `sizes`."""
        low = min(sizes, default=0)
        if low < 0:
            raise ValueError(f"knapsack size {low} is negative")
        n = len(sizes)
        b = n + 2
        bits = (n + 1) * (cap + 1) * b
        if bits > self.budget:
            raise BudgetExceeded(f"suffix chain of {bits} bits (n={n}, "
                                 f"C={cap}) over the {self.budget}-bit budget")
        chain = self._chain = {}
        self._cap, self._b = cap, b
        mask = (1 << b * (cap + 1)) - 1
        poly = 1  # P_n: the empty packing
        for k in range(n, -1, -1):
            if k < n and sizes[k] <= cap:
                poly = (poly + (poly << b * sizes[k])) & mask
            chain[sizes[k:]] = poly
        return poly


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

    def __post_init__(self):
        if self.noise_mode not in ("none", "hash", "extreme"):
            raise ValueError(f"unknown noise_mode {self.noise_mode!r}")


def _hash_unit(data: bytes) -> int:
    """Deterministic pseudo-uniform 64-bit integer h from `data`, standing
    for the point h / 2**64 of [0, 1)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def _as_fraction(v) -> Fraction:
    # exact type: the repr of a subclass would change the hash input
    return v if type(v) is Fraction else Fraction(v)


class SimulatedOracles:
    """Exact / FPTAS / FPRAS closures over a problem's exact counter.

    The FPTAS is a mathematical function of (instance, eps): identical calls
    always return identical values, as the consistency arguments require.

    Each draw hashes the bytes of one repr, rendered at the call from the
    instance key, the accuracy eps and delta_fail as `Fraction`s, and the
    config: repr((tag, key, eps, seed)) for the noise and edge draws, tag
    'noise' or 'edge', and repr(('fail', key, eps, delta_fail, seed,
    nonce)) for the failure draw.
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
        return self._estimate(self.problem.instance_key(x),
                              _as_fraction(eps), self.problem.exact_count(x))

    def fpras(self, x, eps: Fraction, delta_fail: Fraction) -> int:
        self.calls["fpras"] += 1
        eps = _as_fraction(eps)
        exact = self.problem.exact_count(x)
        key = self.problem.instance_key(x)
        cfg = self.config
        fail = key in cfg.forced_failures
        if not fail:
            delta_fail = _as_fraction(delta_fail)
            if delta_fail.numerator > 0:
                h = _hash_unit(repr(("fail", key, eps, delta_fail, cfg.seed,
                                     cfg.nonce)).encode())
                # h / 2**64 < delta_fail
                fail = (h * delta_fail.denominator
                        < delta_fail.numerator << 64)
        if fail:
            self.failures += 1
            return exact * cfg.failure_distortion
        return self._estimate(key, eps, exact)

    def _estimate(self, key: tuple, eps: Fraction, exact: int) -> int:
        """The simulated FPTAS value for an instance, given its key, its
        accuracy and its count. The noise band is
        [ceil(exact*(1-eps)), floor(exact*(1+eps))], each end at least 1,
        in integer arithmetic on eps = p/q."""
        if exact == 0:
            return 0
        mode = self.config.noise_mode
        if mode == "none":
            return exact
        p, q = eps.numerator, eps.denominator
        lo = max(-(-exact * (q - p) // q), 1)
        hi = max(exact * (q + p) // q, 1)
        seed = self.config.seed
        if mode == "hash":
            h = _hash_unit(repr(("noise", key, eps, seed)).encode())
            return lo + (h * (hi - lo + 1) >> 64)  # lo + floor(h/2**64 * span)
        h = _hash_unit(repr(("edge", key, eps, seed)).encode())  # extreme
        return hi if h >= 1 << 63 else lo  # h / 2**64 >= 1/2


def default_oracle_factory(problem, noise_mode="none", seed=0,
                           forced=frozenset()):
    """Per-role FPRAS factory: role 0 is the master, 1..m the slaves; each
    role gets its own failure nonce (session-private randomness)."""

    def factory(role: int):
        cfg = SimulatedOracleConfig(noise_mode=noise_mode, seed=seed,
                                    nonce=role, forced_failures=forced)
        return SimulatedOracles(problem, cfg).fpras

    return factory


# ---------------------------------------------------------------------------
# Instance files.

def parse_instance(text: str):
    """Parse an instance file; returns (problem, instance).

    Format: `allbits <n>` on one line, or `knapsack <n> <C>` followed by a
    line with the n sizes (blank, or left out, when n = 0). Any further
    non-blank line is an error.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty instance file")
    head = lines[0].split()
    if head[0] == "allbits":
        if len(head) != 2 or lines[1:]:
            raise ValueError("expected one line, `allbits <n>`")
        n = int(head[1])
        if n < 0:
            raise ValueError(f"allbits length {n} is negative")
        return AllBitstrings(), n
    if head[0] == "knapsack":
        if len(head) != 3 or lines[2:]:
            raise ValueError("expected `knapsack <n> <C>` and at most one "
                             "line of sizes")
        n, cap = int(head[1]), int(head[2])
        sizes = tuple(int(t) for t in lines[1].split()) if lines[1:] else ()
        if len(sizes) != n:
            raise ValueError(f"expected {n} sizes, got {len(sizes)}")
        if cap < 0 or any(s < 0 for s in sizes):
            raise ValueError("capacity and sizes must be non-negative")
        return Knapsack(), KnapsackInstance(cap, sizes)
    raise ValueError(f"unknown problem {head[0]!r}")


def format_instance(problem: SelfReducibleProblem, x) -> str:
    if isinstance(problem, AllBitstrings):
        return f"allbits {x}\n"
    if isinstance(problem, Knapsack):
        sizes = " ".join(str(s) for s in x.sizes)
        return f"knapsack {len(x.sizes)} {x.capacity}\n{sizes}\n"
    raise ValueError(f"cannot format {problem!r}")
