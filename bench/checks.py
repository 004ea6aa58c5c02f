"""Output checks, percentiles and digests for the benchmark.

Every check here recomputes its reference from the workload's inputs with
the benchmark's own arithmetic (never with the program's counters or its
stored output), or tests a property the method guarantees. A check
returns a list of violation messages; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def percentile(values, pct: float):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """Number of samples strictly above the nearest-rank pct percentile."""
    return count - max(1, math.ceil(pct / 100 * count))


def blocks(values, size: int) -> list:
    """Consecutive runs of `size` values; a shorter last run is dropped."""
    return [values[i:i + size] for i in range(0, len(values) - size + 1, size)]


def digest(rows) -> str:
    """Short stable digest of an emission sequence (rows of plain values)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def all_bitstrings(n: int) -> set[str]:
    return {format(i, f"0{n}b") for i in range(1 << n)} if n else {""}


def is_packing(sizes, capacity: int, word: str) -> bool:
    return len(word) == len(sizes) and \
        sum(s for s, b in zip(sizes, word) if b == "1") <= capacity


def check_solution_set(words, expected: set[str]) -> list[str]:
    """The stream is exactly the expected set, each word once."""
    errors = []
    seen: set[str] = set()
    dups = [w for w in words if w in seen or seen.add(w)]
    if dups:
        errors.append(f"{len(dups)} duplicated emission(s), e.g. {dups[0]!r}")
    missing = expected - seen
    if missing:
        errors.append(f"{len(missing)} solution(s) never emitted, "
                      f"e.g. {min(missing)!r}")
    extra = seen - expected
    if extra:
        errors.append(f"{len(extra)} emission(s) are not solutions, "
                      f"e.g. {min(extra)!r}")
    return errors


def check_intervals(intervals) -> list[str]:
    """(low, high, width) triples: nonempty, inside [0, 1), pairwise
    disjoint, widths equal to high - low and summing to exactly 1."""
    errors = []
    ordered = sorted(intervals, key=lambda t: t[0])
    for low, high, width in ordered:
        if not (ZERO <= low < high <= ONE) or width != high - low:
            errors.append(f"bad interval [{low}, {high}) width {width}")
            break
    for (l0, h0, _), (l1, h1, _) in zip(ordered, ordered[1:]):
        if h0 > l1:
            errors.append(f"intervals [{l0}, {h0}) and [{l1}, {h1}) overlap")
            break
    total = sum((w for _, _, w in ordered), ZERO)
    if total != ONE:
        errors.append(f"widths sum to {total}, not 1")
    return errors


def ratio_outside(phi_star: Fraction, widths) -> int:
    """Number of emissions whose acceptance ratio phi*/width lies outside
    the open window (1/4, 1)."""
    quarter = Fraction(1, 4)
    return sum(1 for w in widths if not (quarter < phi_star / w < ONE))


def check_tiling(assignments) -> list[str]:
    """(low, high) ranges tile [0, 1) in order."""
    edges = [ZERO] + [h for _, h in assignments]
    for (low, high), expected_low in zip(assignments, edges):
        if low != expected_low or not low < high:
            return [f"range [{low}, {high}) breaks the tiling at {expected_low}"]
    if edges[-1] != ONE:
        return [f"ranges end at {edges[-1]}, not 1"]
    return []


def prefill_bound(m: int, alpha: Fraction, delta_star: Fraction) -> int:
    """Q = ceil((2m / a^2) * ln((2m^2 + m a^2) / (a^2 d*)))."""
    a2 = float(alpha) ** 2
    return math.ceil(2 * m / a2 * math.log((2 * m * m + m * a2)
                                            / (a2 * float(delta_star))))
