"""Uniformity tests, delay profiles and CSV reporting."""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

from .record import EmissionRecord

SIGNIFICANCE = 1e-3  # family-wise level of every uniformity test


class InsufficientRuns(Exception):
    """Not enough runs for the requested statistical test."""


def frac_str(f: Fraction | None) -> str:
    if f is None:
        return ""
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def chi_square_counts(counts: dict, expected: float) -> tuple[float, float]:
    """Chi-square statistic and p-value against equal expected counts.

    A single category (a support of one solution) holds every draw: 0
    degrees of freedom, reported as p = 1, since every order of one
    solution is uniform."""
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    if len(counts) == 1:
        return stat, 1.0
    return stat, _chi2_sf(stat, len(counts) - 1)


def _chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with integer df >= 1, in closed form
    (Abramowitz & Stegun 26.4.4-26.4.5). With h = x/2 and a = (df mod 2)/2,
    it is sum_{i < df//2} e^-h h^(i+a) / Gamma(i+a+1), plus erfc(sqrt(h))
    for odd df. Each term is the exp of its log, so none underflows at
    large df."""
    h = x / 2
    if h <= 0:  # x <= 0, or so small that x/2 is 0: log(h) is undefined
        return 1.0
    a = (df % 2) / 2
    log_h = math.log(h)
    head = math.erfc(math.sqrt(h)) if a else 0.0
    return head + sum(math.exp((i + a) * log_h - h - math.lgamma(i + a + 1))
                      for i in range(df // 2))


def _position_test(orders: list[tuple], support: set[str], positions: int,
                   name: str) -> dict:
    """Chi-square against uniform 1/M of which solution lands at each
    position k < `positions`, on at least 50*M*positions runs; `pvalue`,
    the smallest, must reach the Bonferroni SIGNIFICANCE/positions."""
    m = len(support)
    need = 50 * m * positions
    if len(orders) < need:
        raise InsufficientRuns(f"need >= {need} runs, got {len(orders)}")
    pvalues = []
    for k in range(positions):
        counts = {w: 0 for w in support}
        for order in orders:
            counts[order[k]] += 1
        pvalues.append(chi_square_counts(counts, len(orders) / m)[1])
    pvalue = min(pvalues)
    return {"test": name, "pvalues": pvalues, "pvalue": pvalue,
            "passed": pvalue >= SIGNIFICANCE / positions,
            "runs": len(orders), "support": m}


def first_emission_test(first_words: list[str], support: set[str]) -> dict:
    """Position 0 only: the first emission across runs."""
    return _position_test([(w,) for w in first_words], support, 1,
                          "first-emission")


def position_frequency_test(orders: list[tuple], support: set[str]) -> dict:
    """Every position: each marginal is uniform over Sol(x) when every
    emission is uniform over the remaining solutions."""
    return _position_test(orders, support, len(support),
                          "position-frequency")


def uniformity_test(runs: list[list[str]], mode: str = "first") -> dict:
    """Each run is its session's solutions in emission order."""
    if not runs:
        raise InsufficientRuns("no runs")
    support = set(runs[0])
    if mode == "first":
        return first_emission_test([r[0] for r in runs], support)
    return position_frequency_test([tuple(r) for r in runs], support)


def delay_profile(emissions: list[EmissionRecord], window: int) -> list[dict]:
    """Per-window mean attempts and mean inter-emission ticks."""
    rows = []
    prev_tick = 0
    for start in range(0, len(emissions), window):
        chunk = emissions[start:start + window]
        rows.append({
            "window": start // window,
            "count": len(chunk),
            "mean_attempts": sum(e.attempts for e in chunk) / len(chunk),
            "mean_ticks": float(chunk[-1].tick - prev_tick) / len(chunk),
        })
        prev_tick = chunk[-1].tick
    return rows


def emissions_csv(emissions: list[EmissionRecord]) -> str:
    """RFC-4180 CSV of one run; exact rationals as num/den strings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["index", "solution", "low", "high", "width",
                     "attempts", "tick"])
    for i, e in enumerate(emissions, 1):
        writer.writerow([i, e.solution, frac_str(e.low), frac_str(e.high),
                         frac_str(e.width), e.attempts, str(e.tick)])
    return buf.getvalue()


def profile_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["window", "count", "mean_attempts", "mean_ticks"])
    for row in rows:
        writer.writerow([row["window"], row["count"],
                         f"{row['mean_attempts']:.6f}",
                         f"{row['mean_ticks']:.6f}"])
    return buf.getvalue()
