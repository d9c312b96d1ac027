"""Quaternion fixtures and the rotation-matrix oracle for the tests.

Rotations are built here as numpy arrays in (w, x, y, z) order. ``to_matrix``
writes the 3x3 matrix out from the components, so the tests check
``hmas.quat``'s kernels against matrix products that do not use them.
"""
from __future__ import annotations

import math

import numpy as np

from hmas import quat


def from_axis_angle(axis, angle_rad: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / quat.norm(axis.tolist())
    half = 0.5 * angle_rad
    return np.concatenate(([math.cos(half)], math.sin(half) * axis))


def from_yaw(yaw_rad: float) -> np.ndarray:
    """Rotation about +z (up), right-handed."""
    return np.array([math.cos(0.5 * yaw_rad), 0.0, 0.0, math.sin(0.5 * yaw_rad)])


def to_matrix(q) -> np.ndarray:
    """3x3 rotation matrix of unit quaternion q."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
