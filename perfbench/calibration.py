"""Reference loop that measures how fast the machine runs right now.

On a shared machine the speed of one CPU changes by up to about 1.7x within
seconds, and drifts over minutes, as other tenants come and go. Raw host
times then spread by 15-30 % from one run to the next, which hides any change
smaller than that. The benchmark therefore brackets each timed span of work
with runs of a fixed reference loop that uses no hmas code. It scales the
span's host time by ``REFERENCE_NOMINAL_S`` over the mean of the two reference
times around it. The result reads as host time at a fixed nominal machine
speed. A change to hmas moves it, while a change in machine speed cancels
out. On a 2-CPU shared machine this cut the quartile spread of ten-run blocks
from 13-18 % to 4-5 %.
"""
from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass

import numpy as np

# Reference time on an uncontended core of a 2.1 GHz Xeon; it only fixes
# the scale of the reported numbers.
REFERENCE_NOMINAL_S = 0.025
SETTLE_S = 0.12

_M = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])


@dataclass(frozen=True)
class _Point:
    a: float
    b: float
    c: float


def _python_part(n: int = 10_000) -> float:
    """Scalar math, small frozen dataclasses, struct packing and dicts: the
    mix of the rover model and the bag codec."""
    acc = 0.0
    packed = []
    table = {}
    for i in range(n):
        x = i * 1e-3
        lat = math.atan2(x + 0.5 * math.sin(x) ** 3, 1.0 + math.cos(x) ** 3)
        p = _Point(lat, math.hypot(x, lat), math.sqrt(1.0 + x))
        packed.append(struct.pack("<ddd", p.a, p.b, p.c))
        table[i & 63] = p
        acc += p.b
    return acc


def _numpy_part(n: int = 2_500) -> np.ndarray:
    """Many small-array numpy calls: the mix of the agents and tf layers."""
    v = np.zeros(3)
    for i in range(n):
        v = _M @ (v + np.array([i * 1e-3, 1.0, 2.0])) * 0.5
        v = v / (1.0 + np.linalg.norm(v))
    return v


def reference_s() -> float:
    """Host seconds of one run of the reference loop.

    It first spins for ``SETTLE_S``: for about 0.1 s after a stage frees a
    large heap (``analyze_bag`` does), everything on the CPU runs up to twice
    as slowly. A reference measured inside that window would tie the scale
    to how much memory the previous stage happened to free. Spinning rather
    than sleeping keeps the CPU busy, so the reference does not measure a
    CPU waking from idle either.
    """
    settled = time.perf_counter() + SETTLE_S
    while time.perf_counter() < settled:
        pass
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0


class Bracket:
    """Reference runs around consecutive spans of work."""

    def __init__(self) -> None:
        self.before = reference_s()
        self.scales: list[float] = []

    def close(self) -> float:
        """Run the closing reference and return the scale for the span since
        the previous one; the closing run also opens the next span."""
        after = reference_s()
        self.scales.append(REFERENCE_NOMINAL_S / (0.5 * (self.before + after)))
        self.before = after
        return self.scales[-1]

    def scaled(self, host_s: float) -> float:
        """``host_s`` of the span just ended, at nominal machine speed."""
        return host_s * self.close()
