"""The package's one vector type, its number rules and its unit-quaternion
kernels on Python floats, (w, x, y, z) component order. No numpy here.

A number is a real number that is not a bool (numpy's too) and is finite as a
float. Every scalar that enters the package passes ``_finite_float`` and is
kept as a float; its entry point checks only its range. A seed or a depth
passes ``_integer``, and a true-or-false switch (``noiseless``) ``_flag``.
Every per-point vector the package stores or returns is a float tuple, a
``Vec3`` or a ``Quat``, ``geo``'s ENU and ECEF points included.
Every vector that enters a spec, a transform or an agent passes
``_finite_floats``; ``geo`` checks only that an ECEF point is finite. Each
quaternion operation is written once, on float sequences, and returns a float
tuple; ``IDENTITY`` is ``(1.0, 0.0, 0.0, 0.0)``. One arithmetic rule holds
across the package: every reduction (a dot product, a norm, a rotation) is a
sum of Python floats in a fixed order, left to right, as ``inner`` writes it.
None goes through BLAS (``ndarray.dot``, ``@``, ``numpy.linalg``), whose
summation order depends on the CPU, the OpenBLAS kernel and the thread count,
nor through the built-in ``sum``, compensated since Python 3.12. So the same
inputs give the same bits on every host.
"""
from __future__ import annotations

import math
from numbers import Integral, Real

Quat = tuple[float, float, float, float]
Vec3 = tuple[float, float, float]

IDENTITY: Quat = (1.0, 0.0, 0.0, 0.0)
_REAL = (float, int, Real)  # the built-in types first: the ABC check takes several times as long


def _finite_float(value, what: str, error: type = ValueError) -> float:
    """``value``, a number, as a float, or else ``error`` naming ``what``."""
    try:
        if isinstance(value, _REAL) and type(value) is not bool and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer or a fraction too large for a float
        pass
    raise error(f"{what} must be a finite number, got {value!r}")


def _integer(value, what: str, least: int, most: float = math.inf) -> int:
    """``value``, an integer (not a bool) in [``least``, ``most``], as an ``int``."""
    if isinstance(value, Integral) and type(value) is not bool and least <= value <= most:
        return int(value)
    raise ValueError(f"{what} must be an integer in [{least}, {most}], got {value!r}")


def _flag(value, what: str) -> bool:
    """``value``, a Python bool, or else ``ValueError`` naming ``what``."""
    if type(value) is bool:
        return value
    raise ValueError(f"{what} must be true or false, got {value!r}")


def _finite_floats(value, n: int, what: str, error: type = ValueError) -> tuple[float, ...]:
    """``value``, a flat vector of ``n`` numbers (an ndarray through ``tolist()``), as floats."""
    items = value.tolist() if hasattr(value, "tolist") else value
    try:
        if len(items) == n:
            return tuple(_finite_float(x, what) for x in items)
    except (TypeError, ValueError):  # no length, not iterable, or an entry not a number
        pass
    raise error(f"{what} must be {n} finite numbers, got {value!r}")


def inner(a, b) -> float:
    """``a[0] * b[0] + a[1] * b[1] + ...`` for non-empty float sequences."""
    pairs = zip(a, b)
    x, y = next(pairs)
    total = x * y
    for x, y in pairs:
        total += x * y
    return total


def norm(v) -> float:
    """Euclidean norm of a non-empty float sequence, ``math.sqrt(inner(v, v))``."""
    return math.sqrt(inner(v, v))


def mul(q1, q2) -> Quat:
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def conjugate(q) -> Quat:
    return (q[0], -q[1], -q[2], -q[3])


def rotate(q, v) -> Vec3:
    """Rotate 3-vector v by unit quaternion q."""
    w, x, y, z = q
    vx, vy, vz = v
    # q * (0, v)
    pw = -x * vx - y * vy - z * vz
    px = w * vx + y * vz - z * vy
    py = w * vy - x * vz + z * vx
    pz = w * vz + x * vy - y * vx
    # ... * conj(q)
    return (
        -pw * x + px * w - py * z + pz * y,
        -pw * y + px * z + py * w - pz * x,
        -pw * z - px * y + py * x + pz * w,
    )


def canonicalize(q) -> Quat:
    """Flip sign so w >= 0 (w == 0: first nonzero component positive)."""
    q = tuple(q)
    for c in q:
        if c > 0.0:
            return q
        if c < 0.0:
            return (-q[0], -q[1], -q[2], -q[3])
    return q


def slerp(q1, q2, t: float) -> Quat:
    """Shortest-arc spherical interpolation between unit quaternions."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    dot = inner(q1, q2)
    if dot < 0.0:
        w2, x2, y2, z2, dot = -w2, -x2, -y2, -z2, -dot
    if dot > 0.9995:
        # nearly parallel: lerp and renormalize
        w, x, y, z = (w1 + t * (w2 - w1), x1 + t * (x2 - x1),
                      y1 + t * (y2 - y1), z1 + t * (z2 - z1))
        n = norm((w, x, y, z))
        if n == 0.0:
            raise ValueError("cannot normalize a zero quaternion")
        return (w / n, x / n, y / n, z / n)
    theta0 = math.acos(min(dot, 1.0))
    theta = theta0 * t
    s2 = math.sin(theta) / math.sin(theta0)
    s1 = math.cos(theta) - dot * s2
    return (s1 * w1 + s2 * w2, s1 * x1 + s2 * x2, s1 * y1 + s2 * y2, s1 * z1 + s2 * z2)
