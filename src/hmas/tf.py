"""Timestamped rigid-transform tree relating agent, sensor, and world frames.

Frames form a forest; each edge keeps a sliding time buffer of samples and
lookups compose interpolated edges along the unique tree path. The "world"
frame is conventionally the RTK base anchor.

A ``Transform`` holds float tuples, a ``quat.Vec3`` and a ``quat.Quat``, so it
compares and hashes by value and shares nothing with its caller; no numpy here.
``Transform(...)`` checks what it is given: a translation and a rotation that
pass ``quat._finite_floats``, a finite stamp and a unit rotation. Transforms of
float tuples the package has just computed (a lookup's result, an agent's pose
edges) are built by ``_transform``, which skips those checks;
``TransformTree.set_transform`` still rejects a non-finite stamp or
translation, whichever way a transform was built.

A tree remembers each frame pair's last lookup. Asked for the same pair at the
same time again, it answers from that memo without walking the edges, and any
``set_transform`` clears the memo, so the answer is always what the walk would
compute. A lookup that raises is not remembered.
"""
from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field

from . import quat


class TfError(Exception):
    pass


class UnknownFrameError(TfError):
    pass


class DisconnectedFramesError(TfError):
    pass


class CycleError(TfError):
    pass


class TimeBoundsError(TfError):
    """Requested or inserted time falls outside an edge's buffer span."""


class FrameMismatchError(TfError):
    pass


QUAT_NORM_TOL = 1e-9
DEFAULT_HORIZON_S = 10.0


@dataclass(frozen=True)
class Transform:
    """Rigid transform mapping child-frame coordinates into the parent frame."""

    parent: str
    child: str
    translation: quat.Vec3
    rotation: quat.Quat  # unit quaternion, (w, x, y, z)
    stamp: float = 0.0

    def __post_init__(self) -> None:
        if not self.parent or not self.child:
            raise UnknownFrameError("frame names must be non-empty")
        for name, n in (("translation", 3), ("rotation", 4)):
            object.__setattr__(self, name, quat._finite_floats(getattr(self, name), n, name))
        if not math.isfinite(self.stamp):
            raise ValueError(f"non-finite stamp {self.stamp}")
        if not abs(quat.norm(self.rotation) - 1.0) <= QUAT_NORM_TOL:
            raise ValueError(f"rotation is not a unit quaternion: {self.rotation}")

    def apply(self, point) -> quat.Vec3:
        """Map a point expressed in the child frame into the parent frame."""
        tx, ty, tz = self.translation
        x, y, z = quat.rotate(self.rotation, tuple(map(float, point)))
        return tx + x, ty + y, tz + z

    @classmethod
    def identity(cls, parent: str, child: str | None = None, stamp: float = 0.0) -> "Transform":
        return cls(parent, child if child is not None else parent,
                   (0.0, 0.0, 0.0), quat.IDENTITY, stamp)


def _transform(parent: str, child: str, translation, rotation, stamp: float) -> Transform:
    """A ``Transform`` of float tuples the package has just computed (3 and 4
    finite floats, the rotation unit-norm), kept as they are: no checks."""
    t = object.__new__(Transform)
    t.__dict__.update(parent=parent, child=child, translation=translation,
                      rotation=rotation, stamp=stamp)
    return t


def compose(a: Transform, b: Transform) -> Transform:
    """a then b: result maps b.child coordinates into a.parent."""
    if a.child != b.parent:
        raise FrameMismatchError(f"cannot compose {a.parent}->{a.child} with {b.parent}->{b.child}")
    return Transform(a.parent, b.child, a.apply(b.translation),
                     quat.mul(a.rotation, b.rotation), max(a.stamp, b.stamp))


def invert(a: Transform) -> Transform:
    qc = quat.conjugate(a.rotation)
    x, y, z = quat.rotate(qc, a.translation)
    return Transform(a.child, a.parent, (-x, -y, -z), qc, a.stamp)


@dataclass
class _Edge:
    """Samples of one edge, sorted by stamp, as copies the tree owns.

    ``stamps`` is kept apart for ``bisect``; ``samples[i]`` is the sample at
    ``stamps[i]``: a (translation, rotation) pair of float tuples, which
    lookups reduce only by fixed-order float sums (slerp's dot, ``hmas.quat``).
    """

    parent: str
    stamps: list[float] = field(default_factory=list)
    samples: list[tuple[quat.Vec3, quat.Quat]] = field(default_factory=list)


class TransformTree:
    """One-writer/many-reader forest of timestamped edges.

    Each edge retains ``horizon_s`` seconds of history behind its newest
    sample; lookups refuse to extrapolate outside an edge's buffered span.
    """

    def __init__(self, horizon_s: float = DEFAULT_HORIZON_S) -> None:
        if not 0.0 < horizon_s < math.inf:  # NaN fails too
            raise ValueError(f"horizon must be finite and above 0, got {horizon_s}")
        self._horizon = horizon_s
        self._edges: dict[str, _Edge] = {}  # child -> edge history
        self._parents: set[str] = set()
        # (target, source) -> (at, translation, rotation) of the pair's last lookup
        self._memo: dict[tuple[str, str], tuple[float, quat.Vec3, quat.Quat]] = {}
        self._lock = threading.RLock()

    # -- writing ------------------------------------------------------

    def set_transform(self, t: Transform) -> None:
        if not all(map(math.isfinite, (t.stamp, *t.translation))):
            raise ValueError(f"non-finite stamp {t.stamp} or translation {t.translation}")
        with self._lock:
            self._memo.clear()
            edge = self._edges.get(t.child)
            if edge is not None and edge.parent != t.parent:
                raise CycleError(
                    f"frame {t.child!r} already has parent {edge.parent!r}; "
                    f"re-parenting to {t.parent!r} would break the forest")
            if edge is None and self._would_cycle(t.parent, t.child):
                raise CycleError(f"edge {t.parent}->{t.child} would create a cycle")
            if edge is None:
                edge = _Edge(t.parent)
                self._edges[t.child] = edge
                self._parents.add(t.parent)
            stamps = edge.stamps
            if stamps and t.stamp < stamps[-1] - self._horizon:
                raise TimeBoundsError(
                    f"stamp {t.stamp} is older than the {self._horizon}s buffer horizon")
            sample = (t.translation, quat.canonicalize(t.rotation))
            i = bisect_left(stamps, t.stamp)
            if i < len(stamps) and stamps[i] == t.stamp:
                edge.samples[i] = sample
            else:
                stamps.insert(i, t.stamp)
                edge.samples.insert(i, sample)
            k = bisect_left(stamps, stamps[-1] - self._horizon)
            if k:
                del stamps[:k], edge.samples[:k]

    def _would_cycle(self, parent: str, child: str) -> bool:
        node = parent
        while node in self._edges:
            node = self._edges[node].parent
            if node == child:
                return True
        return parent == child

    # -- reading ------------------------------------------------------

    def frames(self) -> set[str]:
        with self._lock:
            return self._parents.union(self._edges)

    def lookup(self, target: str, source: str, at: float) -> Transform:
        """Transform mapping source-frame coordinates into the target frame at time ``at``."""
        with self._lock:
            memo = self._memo.get((target, source))
            if memo is not None and memo[0] == at:
                return _transform(target, source, memo[1], memo[2], at)
            for f in (target, source):
                if f not in self._edges and f not in self._parents:
                    raise UnknownFrameError(f"unknown frame {f!r}")
            if target == source:
                if not math.isfinite(at):
                    raise TimeBoundsError(f"time {at} is not finite")
                return Transform.identity(target, source, at)
            t_chain = self._chain_to_root(target)
            s_chain = self._chain_to_root(source)
            t_set = set(t_chain)
            ancestor = next((f for f in s_chain if f in t_set), None)
            if ancestor is None:
                raise DisconnectedFramesError(
                    f"frames {target!r} and {source!r} live in different trees")
            q_t, p_t = self._to_ancestor(target, ancestor, at)
            q_s, p_s = self._to_ancestor(source, ancestor, at)
            q_ti = quat.conjugate(q_t)
            rotation = quat.canonicalize(quat.mul(q_ti, q_s))
            translation = quat.rotate(
                q_ti, (p_s[0] - p_t[0], p_s[1] - p_t[1], p_s[2] - p_t[2]))
            self._memo[target, source] = (at, translation, rotation)
            return _transform(target, source, translation, rotation, at)

    def _chain_to_root(self, frame: str) -> list[str]:
        chain = [frame]
        while frame in self._edges:
            frame = self._edges[frame].parent
            chain.append(frame)
        return chain

    def _to_ancestor(self, frame: str, ancestor: str, at: float) -> tuple[quat.Quat, quat.Vec3]:
        """Accumulated (rotation, translation) mapping ``frame`` coords into ``ancestor``."""
        q_acc = quat.IDENTITY
        p_acc = (0.0, 0.0, 0.0)
        node = frame
        while node != ancestor:
            edge = self._edges[node]
            eq, ep = self._sample(edge, node, at)
            q_acc = quat.mul(eq, q_acc)
            r = quat.rotate(eq, p_acc)
            p_acc = (ep[0] + r[0], ep[1] + r[1], ep[2] + r[2])
            node = edge.parent
        return q_acc, p_acc

    def _sample(self, edge: _Edge, child: str, at: float) -> tuple[quat.Quat, quat.Vec3]:
        stamps = edge.stamps
        if not stamps or not stamps[0] <= at <= stamps[-1]:  # NaN is out of bounds
            span = f"[{stamps[0]}, {stamps[-1]}]" if stamps else "(empty)"
            raise TimeBoundsError(
                f"time {at} outside buffer span {span} of edge {edge.parent}->{child}")
        i = bisect_left(stamps, at)
        if stamps[i] == at:
            translation, rotation = edge.samples[i]
            return rotation, translation
        (x0, y0, z0), q0 = edge.samples[i - 1]
        (x1, y1, z1), q1 = edge.samples[i]
        alpha = (at - stamps[i - 1]) / (stamps[i] - stamps[i - 1])
        beta = 1.0 - alpha
        translation = (beta * x0 + alpha * x1, beta * y0 + alpha * y1, beta * z0 + alpha * z1)
        return quat.slerp(q0, q1, alpha), translation

    # -- export ---------------------------------------------------------

    def to_dot(self) -> str:
        """Tree snapshot as a DOT digraph (one arrow per parent->child edge)."""
        with self._lock:
            lines = ["digraph transform_tree {"]
            for child in sorted(self._edges):
                lines.append(f'  "{self._edges[child].parent}" -> "{child}";')
            lines.append("}")
            return "\n".join(lines) + "\n"
