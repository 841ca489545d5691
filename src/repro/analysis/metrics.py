"""Throughput metrics and conversions used by the benchmarks."""

from __future__ import annotations


def mtps(tuples: int, seconds: float) -> float:
    """Million tuples per second."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return tuples / seconds / 1e6


def mteps(edges: int, seconds: float) -> float:
    """Million traversed edges per second (the Fig. 8 metric)."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return edges / seconds / 1e6


def gbps(byte_count: int, seconds: float) -> float:
    """Gigabits per second (the Fig. 9 metric)."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return byte_count * 8 / seconds / 1e9


def speedup(ours: float, baseline: float) -> float:
    """Ratio ours / baseline (>1 means ours is faster)."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return ours / baseline
