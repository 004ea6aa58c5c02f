"""Emission records: what a trie descent returns, and the unit of
statistics and of master/slave messages."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(slots=True)
class EmissionRecord:
    solution: str
    low: Fraction | None      # interval endpoints; None for index-based algos
    high: Fraction | None
    width: Fraction
    attempts: int = 1
    tick: int | Fraction = 0
