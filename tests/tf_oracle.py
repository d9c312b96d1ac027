"""The transform tree's numpy reference for the tests.

``_ReferenceTree`` buffers and looks up as ``hmas.tf.TransformTree`` does, as
numpy arithmetic on arrays, with none of the tree's caches: it finds each
pair's frame chains again on every lookup. Its slerp, ``_numpy_slerp``, and
the fixed-order dot products in ``_WRITTEN_DOT`` are the sums written out, so
the tree's lookups must match it bit for bit.
"""
from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from hmas import quat
from hmas.tf import DisconnectedFramesError, TimeBoundsError, UnknownFrameError

_WRITTEN_DOT = {
    2: lambda a, b: a[0] * b[0] + a[1] * b[1],                             # heading norm
    3: lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2],               # standoff dot
    4: lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3],  # slerp dot
}


def _numpy_slerp(q1, q2, t):
    dot = _WRITTEN_DOT[4](q1.tolist(), q2.tolist())
    if dot < 0.0:
        q2 = -q2
        dot = -dot
    if dot > 0.9995:
        q = q1 + t * (q2 - q1)
        return q / math.sqrt(_WRITTEN_DOT[4](q.tolist(), q.tolist()))
    theta0 = math.acos(min(dot, 1.0))
    theta = theta0 * t
    s2 = math.sin(theta) / math.sin(theta0)
    s1 = math.cos(theta) - dot * s2
    return s1 * q1 + s2 * q2


class _ReferenceTree:
    """The tree's buffering and lookup as numpy arithmetic on arrays: a
    ``pop(0)`` trim, a frame set rebuilt per lookup, and vector slerp whose
    dot product and norm are the sums written out."""

    def __init__(self, horizon_s):
        self.horizon = horizon_s
        self.edges = {}  # child -> (parent, stamps, translations, rotations)

    def set_transform(self, parent, child, translation, rotation, stamp):
        _, stamps, ts, qs = self.edges.setdefault(child, (parent, [], [], []))
        if stamps and stamp < stamps[-1] - self.horizon:
            raise TimeBoundsError("too old")
        translation, rotation = translation.copy(), np.array(quat.canonicalize(rotation))
        i = bisect_left(stamps, stamp)
        if i < len(stamps) and stamps[i] == stamp:
            ts[i], qs[i] = translation, rotation
        else:
            stamps.insert(i, stamp)
            ts.insert(i, translation)
            qs.insert(i, rotation)
        while stamps[0] < stamps[-1] - self.horizon:
            stamps.pop(0)
            ts.pop(0)
            qs.pop(0)

    def _chain(self, frame):
        chain = [frame]
        while frame in self.edges:
            frame = self.edges[frame][0]
            chain.append(frame)
        return chain

    def _sample(self, child, at):
        _, stamps, ts, qs = self.edges[child]
        if at < stamps[0] or at > stamps[-1]:
            raise TimeBoundsError("outside span")
        i = bisect_left(stamps, at)
        if stamps[i] == at:
            return qs[i], ts[i]
        alpha = (at - stamps[i - 1]) / (stamps[i] - stamps[i - 1])
        return (_numpy_slerp(qs[i - 1], qs[i], alpha),
                (1.0 - alpha) * ts[i - 1] + alpha * ts[i])

    def _to_ancestor(self, frame, ancestor, at):
        q_acc, p_acc = quat.IDENTITY, np.zeros(3)
        while frame != ancestor:
            eq, ep = self._sample(frame, at)
            q_acc = quat.mul(eq, q_acc)
            p_acc = ep + quat.rotate(eq, p_acc)
            frame = self.edges[frame][0]
        return q_acc, p_acc

    def lookup(self, target, source, at):
        known = set(self.edges) | {parent for parent, *_ in self.edges.values()}
        if target not in known or source not in known:
            raise UnknownFrameError("unknown")
        if target == source:
            return np.zeros(3), np.array(quat.IDENTITY)
        t_chain = set(self._chain(target))
        ancestor = next((f for f in self._chain(source) if f in t_chain), None)
        if ancestor is None:
            raise DisconnectedFramesError("disconnected")
        q_t, p_t = self._to_ancestor(target, ancestor, at)
        q_s, p_s = self._to_ancestor(source, ancestor, at)
        q_ti = quat.conjugate(q_t)
        return (np.array(quat.rotate(q_ti, p_s - p_t)),
                np.array(quat.canonicalize(quat.mul(q_ti, q_s))))
