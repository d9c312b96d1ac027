"""Unit-quaternion helpers, (w, x, y, z) component order.

Each operation has one private kernel on Python float tuples (``_mul``,
``_conjugate``, ``_rotate``, ``_canonicalize``, ``_slerp``); the public
functions wrap it and return ``np.ndarray``. The rule that keeps both
bit-identical to numpy: elementwise arithmetic runs on floats, in the same
order numpy would apply it, and every reduction (a dot product or a norm)
runs through ``ndarray.dot``, which is what ``np.dot`` and ``np.linalg.norm``
call for a real 1-D array.
"""
from __future__ import annotations

import math

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

Quat = tuple[float, float, float, float]
Vec3 = tuple[float, float, float]


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D float array, bit for bit the value
    ``np.linalg.norm(v)`` returns, at a fraction of its call cost."""
    return math.sqrt(v.dot(v))


def _mul(q1, q2) -> Quat:
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _conjugate(q) -> Quat:
    return (q[0], -q[1], -q[2], -q[3])


def _rotate(q, v) -> Vec3:
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


def _canonicalize(q) -> Quat:
    for c in q:
        if c > 0.0:
            return q
        if c < 0.0:
            return (-q[0], -q[1], -q[2], -q[3])
    return q


def _slerp(q1, q2, dot: float, t: float) -> Quat:
    """Elementwise part of slerp; ``dot`` is ``q1 . q2`` from ``ndarray.dot``."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    if dot < 0.0:
        w2, x2, y2, z2, dot = -w2, -x2, -y2, -z2, -dot
    if dot > 0.9995:
        # nearly parallel: lerp and renormalize
        w, x, y, z = (w1 + t * (w2 - w1), x1 + t * (x2 - x1),
                      y1 + t * (y2 - y1), z1 + t * (z2 - z1))
        n = norm(np.array((w, x, y, z)))
        if n == 0.0:
            raise ValueError("cannot normalize a zero quaternion")
        return (w / n, x / n, y / n, z / n)
    theta0 = math.acos(min(dot, 1.0))
    theta = theta0 * t
    s2 = math.sin(theta) / math.sin(theta0)
    s1 = math.cos(theta) - dot * s2
    return (s1 * w1 + s2 * w2, s1 * x1 + s2 * x2, s1 * y1 + s2 * y2, s1 * z1 + s2 * z2)


def canonicalize(q: np.ndarray) -> np.ndarray:
    """Flip sign so w >= 0 (w == 0: first nonzero component positive)."""
    return np.array(_canonicalize(q))


def mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    return np.array(_mul(q1, q2))


def conjugate(q: np.ndarray) -> np.ndarray:
    return np.array(_conjugate(q))


def rotate(q: np.ndarray, v) -> np.ndarray:
    """Rotate 3-vector v by unit quaternion q."""
    return np.array(_rotate(q, v))


def slerp(q1: np.ndarray, q2: np.ndarray, t: float) -> np.ndarray:
    """Shortest-arc spherical interpolation between unit quaternions."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    return np.array(_slerp(q1.tolist(), q2.tolist(), float(q1.dot(q2)), t))


def from_axis_angle(axis, angle_rad: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle_rad
    return np.concatenate(([math.cos(half)], math.sin(half) * axis))


def from_yaw(yaw_rad: float) -> np.ndarray:
    """Rotation about +z (up), right-handed."""
    return np.array([math.cos(0.5 * yaw_rad), 0.0, 0.0, math.sin(0.5 * yaw_rad)])


def to_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix of unit quaternion q."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
