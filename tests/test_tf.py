"""Transform tree: composition laws, interpolation, lookup over random forests."""
import dataclasses
import hashlib
import math
import threading
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmas import quat
from hmas.tf import (CycleError, DisconnectedFramesError, TfError, TimeBoundsError,
                     Transform, TransformTree, UnknownFrameError, _transform, compose,
                     invert)

from quat_oracle import from_axis_angle, from_yaw, to_matrix


def random_quat(rng):
    axis = rng.normal(size=3)
    return from_axis_angle(axis, rng.uniform(-math.pi, math.pi))


def random_transform(rng, parent="a", child="b", stamp=0.0):
    return Transform(parent, child, rng.uniform(-5, 5, 3), random_quat(rng), stamp)


def homogeneous(t: Transform) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = to_matrix(t.rotation)
    m[:3, 3] = t.translation
    return m


class TestQuatHelpers:
    def test_kernels_take_float_sequences_and_return_float_tuples(self, rng):
        q1, q2 = random_quat(rng).tolist(), tuple(random_quat(rng).tolist())
        for out in (quat.mul(q1, q2), quat.conjugate(q1), quat.rotate(q1, [1.0, 2.0, 3.0]),
                    quat.canonicalize(q2), quat.slerp(q1, q2, 0.3), quat.IDENTITY):
            assert type(out) is tuple and all(type(c) is float for c in out)

    def test_mul_matches_matrix_product(self, rng):
        for _ in range(200):
            q1, q2 = random_quat(rng), random_quat(rng)
            np.testing.assert_allclose(to_matrix(quat.mul(q1, q2)),
                                       to_matrix(q1) @ to_matrix(q2),
                                       atol=1e-12)

    def test_rotate_matches_matrix(self, rng):
        for _ in range(200):
            q = random_quat(rng)
            v = rng.uniform(-3, 3, 3)
            np.testing.assert_allclose(quat.rotate(q, v), to_matrix(q) @ v,
                                       atol=1e-12)

    def test_slerp_midpoint_of_yaw(self):
        mid = quat.slerp(from_yaw(0.0), from_yaw(math.pi / 2), 0.5)
        np.testing.assert_allclose(mid, from_yaw(math.pi / 4), atol=1e-12)

    def test_slerp_takes_shortest_arc(self):
        q0 = from_yaw(0.0)
        q1 = -from_yaw(0.2)  # antipodal representation of the same rotation
        mid = quat.slerp(q0, q1, 0.5)
        np.testing.assert_allclose(to_matrix(mid),
                                   to_matrix(from_yaw(0.1)), atol=1e-9)


class TestTransform:
    def test_unit_norm_enforced(self):
        Transform("a", "b", np.zeros(3), np.array([0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            Transform("a", "b", np.zeros(3), np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            Transform("a", "b", np.zeros(3), np.array([math.nan, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("translation, stamp", [
        ([math.nan, 0.0, 0.0], 0.0), ([0.0, math.inf, 0.0], 0.0),
        ([0.0, 0.0, -math.inf], 0.0), ([0.0, 0.0, 0.0], math.nan),
        ([0.0, 0.0, 0.0], math.inf), ([0.0, 0.0, 0.0], -math.inf),
    ])
    def test_non_finite_translation_or_stamp_rejected(self, translation, stamp):
        with pytest.raises(ValueError, match="finite"):
            Transform("w", "a", translation, quat.IDENTITY, stamp)

    @pytest.mark.parametrize("translation, rotation, field", [
        ((True, 0.0, 0.0), quat.IDENTITY, "translation"),
        ((0.0, 0.0, 0.0), (True, False, False, False), "rotation"),
        (("1", 0.0, 0.0), quat.IDENTITY, "translation"),
        ((0.0, 0.0), quat.IDENTITY, "translation"),
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), "rotation"),
        (np.zeros((1, 3)), quat.IDENTITY, "translation"),
    ], ids=["bool_translation", "bool_rotation", "str_translation", "two_translation",
            "three_rotation", "nested_translation"])
    def test_translation_and_rotation_pass_the_vector_rule(self, translation, rotation, field):
        """A bool is not a number here, as in the agent layer."""
        n = 3 if field == "translation" else 4
        with pytest.raises(ValueError, match=f"{field} must be {n} finite numbers"):
            Transform("w", "a", translation, rotation)

    def test_equal_transforms_compare_equal_and_hash_alike(self):
        a = Transform("w", "a", np.array([1.0, 2.0, 3.0]), from_yaw(0.3), 0.5)
        b = Transform("w", "a", [1, 2, 3], tuple(from_yaw(0.3).tolist()), 0.5)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Transform("w", "a", (1.0, 2.0, 3.5), from_yaw(0.3), 0.5)
        assert a != Transform("w", "b", (1.0, 2.0, 3.0), from_yaw(0.3), 0.5)

    def test_compose_with_identity(self, rng):
        t = random_transform(rng)
        out = compose(t, Transform.identity("b", "b"))
        np.testing.assert_array_equal(out.translation, t.translation)
        np.testing.assert_allclose(out.rotation, t.rotation, atol=1e-15)
        assert (out.parent, out.child) == ("a", "b")

    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(50):
            t = random_transform(rng)
            out = compose(t, invert(t))
            np.testing.assert_allclose(out.translation, np.zeros(3), atol=1e-9)
            np.testing.assert_allclose(np.abs(out.rotation), [1, 0, 0, 0], atol=1e-9)

    def test_compose_frame_mismatch(self, rng):
        with pytest.raises(Exception, match="compose"):
            compose(random_transform(rng, "a", "b"), random_transform(rng, "c", "d"))

    def test_yaw_then_translate_matches_matrix_oracle(self):
        yaw90 = Transform("w", "m", np.zeros(3), from_yaw(math.pi / 2))
        shift = Transform("m", "b", np.array([1.0, 0.0, 0.0]), quat.IDENTITY)
        combined = compose(yaw90, shift)
        point = np.array([0.0, 1.0, 0.0])
        oracle = (homogeneous(yaw90) @ homogeneous(shift) @ np.array([*point, 1.0]))[:3]
        np.testing.assert_allclose(combined.apply(point), oracle, atol=1e-12)
        np.testing.assert_allclose(oracle, [-1.0, 1.0, 0.0], atol=1e-12)

    def test_random_composition_against_matrix_oracle(self, rng):
        for _ in range(300):
            a = random_transform(rng, "x", "y")
            b = random_transform(rng, "y", "z")
            got = homogeneous(compose(a, b))
            want = homogeneous(a) @ homogeneous(b)
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestTreeBasics:
    def test_single_edge_lookup(self):
        tree = TransformTree()
        tree.set_transform(Transform("world", "spot/base", np.array([1.0, 2.0, 0.0]),
                                     quat.IDENTITY, 0.0))
        out = tree.lookup("world", "spot/base", 0.0)
        np.testing.assert_array_equal(out.translation, [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(out.rotation, quat.IDENTITY)

    @pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf])
    def test_same_frame_lookup_rejects_non_finite_time(self, at):
        tree = TransformTree()
        tree.set_transform(Transform.identity("world", "f", 0.0))
        for frame in ("f", "world"):
            with pytest.raises(TimeBoundsError):
                tree.lookup(frame, frame, at)

    def test_identity_lookup_same_frame(self):
        tree = TransformTree()
        tree.set_transform(Transform.identity("world", "f", 0.0))
        out = tree.lookup("f", "f", 123.0)
        np.testing.assert_array_equal(out.translation, np.zeros(3))

    def test_chain_composition(self):
        tree = TransformTree()
        tree.set_transform(Transform("world", "a", np.array([1.0, 0, 0]),
                                     quat.IDENTITY, 0.0))
        tree.set_transform(Transform("a", "b", np.array([2.0, 0, 0]),
                                     quat.IDENTITY, 0.0))
        out = tree.lookup("world", "b", 0.0)
        np.testing.assert_allclose(out.translation, [3.0, 0, 0], atol=1e-12)

    def test_cycle_rejected(self):
        tree = TransformTree()
        tree.set_transform(Transform.identity("world", "spot/base", 0.0))
        with pytest.raises(CycleError):
            tree.set_transform(Transform.identity("spot/base", "world", 0.0))

    def test_self_edge_rejected(self):
        tree = TransformTree()
        with pytest.raises(CycleError):
            tree.set_transform(Transform.identity("a", "a", 0.0))

    def test_reparenting_rejected(self):
        tree = TransformTree()
        tree.set_transform(Transform.identity("world", "cam", 0.0))
        with pytest.raises(CycleError):
            tree.set_transform(Transform.identity("other", "cam", 0.0))

    def test_unknown_frame(self):
        tree = TransformTree()
        tree.set_transform(Transform.identity("world", "a", 0.0))
        with pytest.raises(UnknownFrameError):
            tree.lookup("world", "ghost", 0.0)

    def test_disconnected_trees(self):
        tree = TransformTree()
        tree.set_transform(Transform.identity("w1", "a", 0.0))
        tree.set_transform(Transform.identity("w2", "b", 0.0))
        with pytest.raises(DisconnectedFramesError):
            tree.lookup("a", "b", 0.0)


class TestTimeBuffer:
    def make_moving_edge(self):
        tree = TransformTree()
        tree.set_transform(Transform("world", "a", np.zeros(3), quat.IDENTITY, 0.0))
        tree.set_transform(Transform("world", "a", np.array([10.0, 0, 0]),
                                     from_yaw(math.pi / 2), 10.0))
        return tree

    def test_linear_interpolation_closed_form(self):
        tree = self.make_moving_edge()
        out = tree.lookup("world", "a", 4.0)
        np.testing.assert_allclose(out.translation, [4.0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(out.rotation, from_yaw(0.4 * math.pi / 2),
                                    atol=1e-12)

    def test_exact_stamp_reproduces_stored_sample(self, rng):
        tree = TransformTree()
        samples = [random_transform(rng, "world", "a", stamp=float(i)) for i in range(5)]
        for s in samples:
            tree.set_transform(s)
        for s in samples:
            out = tree.lookup("world", "a", s.stamp)
            assert out.translation[0] == s.translation[0]
            assert out.translation[1] == s.translation[1]
            assert out.translation[2] == s.translation[2]
            stored = quat.canonicalize(s.rotation)
            assert np.max(np.abs(np.subtract(out.rotation, stored))) < 1e-12

    def test_lookup_outside_span_errors(self):
        tree = self.make_moving_edge()
        with pytest.raises(TimeBoundsError):
            tree.lookup("world", "a", -0.1)
        with pytest.raises(TimeBoundsError):
            tree.lookup("world", "a", 10.1)
        with pytest.raises(TimeBoundsError):
            tree.lookup("world", "a", math.nan)

    def test_stale_insert_beyond_horizon_errors(self):
        tree = TransformTree(horizon_s=10.0)
        tree.set_transform(Transform.identity("world", "a", 100.0))
        with pytest.raises(TimeBoundsError):
            tree.set_transform(Transform.identity("world", "a", 89.0))

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            TransformTree(horizon)

    def test_old_samples_pruned(self):
        tree = TransformTree(horizon_s=10.0)
        tree.set_transform(Transform.identity("world", "a", 0.0))
        tree.set_transform(Transform.identity("world", "a", 20.0))
        with pytest.raises(TimeBoundsError):
            tree.lookup("world", "a", 5.0)  # pruned away

    def test_single_sample_valid_only_at_its_stamp(self):
        tree = TransformTree()
        tree.set_transform(Transform.identity("world", "a", 3.0))
        tree.lookup("world", "a", 3.0)
        with pytest.raises(TimeBoundsError):
            tree.lookup("world", "a", 3.5)


def build_random_tree(rng, n_frames=30):
    """Random single-rooted forest with two samples (t=0, t=10) per edge."""
    tree = TransformTree()
    frames = ["f0"]
    for i in range(1, n_frames):
        parent = frames[rng.integers(0, len(frames))]
        child = f"f{i}"
        for stamp in (0.0, 10.0):
            tree.set_transform(Transform(parent, child, rng.uniform(-5, 5, 3),
                                         random_quat(rng), stamp))
        frames.append(child)
    return tree, frames


class TestTreeProperties:
    def test_path_invariance(self, rng):
        tree, frames = build_random_tree(rng, 40)
        for _ in range(100):
            a, b, c = (frames[rng.integers(0, len(frames))] for _ in range(3))
            at = float(rng.uniform(0, 10))
            direct = tree.lookup(a, c, at)
            via = compose(tree.lookup(a, b, at), tree.lookup(b, c, at))
            np.testing.assert_allclose(via.translation, direct.translation, atol=1e-9)
            np.testing.assert_allclose(
                to_matrix(via.rotation), to_matrix(direct.rotation), atol=1e-9)

    def test_inverse_symmetry(self, rng):
        tree, frames = build_random_tree(rng, 40)
        for _ in range(100):
            a, b = (frames[rng.integers(0, len(frames))] for _ in range(2))
            at = float(rng.uniform(0, 10))
            fwd = tree.lookup(a, b, at)
            rev = invert(tree.lookup(b, a, at))
            np.testing.assert_allclose(fwd.translation, rev.translation, atol=1e-9)
            np.testing.assert_allclose(
                to_matrix(fwd.rotation), to_matrix(rev.rotation), atol=1e-9)

    def test_lookup_preserves_distances(self, rng):
        tree, frames = build_random_tree(rng, 25)
        for _ in range(50):
            a, b = (frames[rng.integers(0, len(frames))] for _ in range(2))
            t = tree.lookup(a, b, float(rng.uniform(0, 10)))
            p1, p2 = rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3)
            d_before = np.linalg.norm(p1 - p2)
            d_after = np.linalg.norm(np.subtract(t.apply(p1), t.apply(p2)))
            assert abs(d_after - d_before) <= 1e-9 * max(1.0, d_before)


def test_dot_export_lists_edges():
    tree = TransformTree()
    tree.set_transform(Transform.identity("world", "spot/base", 0.0))
    tree.set_transform(Transform.identity("spot/base", "spot/gps", 0.0))
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert '"world" -> "spot/base";' in dot
    assert '"spot/base" -> "spot/gps";' in dot


def test_one_writer_many_readers():
    tree = TransformTree(horizon_s=1000.0)
    tree.set_transform(Transform.identity("world", "a", 0.0))
    stop = threading.Event()
    errors = []

    def reader():
        while not stop.is_set():
            try:
                out = tree.lookup("world", "a", 0.0)
                if abs(np.linalg.norm(out.rotation) - 1.0) > 1e-9:
                    errors.append("bad rotation")
            except Exception as exc:  # noqa: BLE001 - collect everything
                errors.append(repr(exc))

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for r in readers:
        r.start()
    for i in range(1, 300):
        tree.set_transform(Transform("world", "a", np.array([float(i), 0, 0]),
                                     quat.IDENTITY, float(i)))
    stop.set()
    for r in readers:
        r.join()
    assert errors == []


# -- float kernels against their formulas and numpy arithmetic -----------------

finite = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150, allow_nan=False))
_WRITTEN_DOT = {
    2: lambda a, b: a[0] * b[0] + a[1] * b[1],                             # heading norm
    3: lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2],               # standoff dot
    4: lambda a, b: a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3],  # slerp dot
}


def _float_bits(x):
    return np.float64(x).tobytes()


@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(*[st.lists(finite, min_size=n, max_size=n)] * 2)))
@settings(max_examples=300, deadline=None)
def test_norm_is_bit_identical_to_numpy(pair):
    """``quat.inner`` and ``quat.norm`` against the sums written out, at every
    length the package reduces over; 0.0 and -0.0 compare by their bits."""
    a, b = pair
    written = _WRITTEN_DOT[len(a)]
    assert _float_bits(quat.inner(a, b)) == _float_bits(written(a, b))
    assert _float_bits(quat.norm(a)) == _float_bits(math.sqrt(written(a, a)))


@pytest.mark.parametrize("field", ["translation", "rotation"])
def test_tree_keeps_its_own_copy_of_each_sample(field):
    tree = TransformTree()
    p, q = np.array([1.0, 2.0, 3.0]), from_yaw(0.3)
    tree.set_transform(Transform("world", "a", p, q, 0.0))
    if field == "translation":
        p[0] = 99.0
    else:
        q[:] = from_yaw(1.2)
    out = tree.lookup("world", "a", 0.0)
    np.testing.assert_array_equal(out.translation, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out.rotation, from_yaw(0.3))


@pytest.mark.parametrize("field", ["translation", "rotation"])
def test_transform_keeps_its_own_copy_of_its_arrays(field):
    """A transform holds its own float tuples: changing the caller's arrays
    after construction changes nothing, and nothing can write into them."""
    p, q = np.array([1.0, 2.0, 3.0]), from_yaw(0.3)
    t = Transform("w", "a", p, q)
    u = Transform("a", "b", np.array([0.5, -1.0, 2.0]), from_yaw(-0.7))
    before = [t, compose(t, u), invert(t)]
    expected = [(x.translation, x.rotation) for x in before]
    if field == "translation":
        p[0] = 99.0
    else:
        q[:] = from_yaw(1.2)
    assert (t.translation, t.rotation) == ((1.0, 2.0, 3.0), tuple(from_yaw(0.3).tolist()))
    for x, (tr, rot) in zip([t, compose(t, u), invert(t)], expected):
        assert (x.translation, x.rotation) == (tr, rot)
    for x in before:
        with pytest.raises(TypeError):
            getattr(x, field)[0] = 99.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, field, (0.0, 0.0, 0.0))


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


unit = st.floats(-1.0, 1.0, allow_nan=False)
inserts = st.tuples(
    st.integers(0, 4),                          # edge
    st.integers(0, 12),                         # stamp in quarter seconds
    st.tuples(*[st.floats(-50.0, 50.0)] * 3),  # translation
    st.tuples(*[unit] * 4),                     # rotation components
    st.sampled_from(["random", "near", "near", "near_flipped", "flipped"]),
)
forests = st.fixed_dictionaries({
    "horizon": st.sampled_from([1.0, 2.0, 100.0]),
    # edge i maps frame f{i+1} into an earlier frame, or into the second root
    # "g"; its first sample has its base rotation, which "near" samples stay
    # close to
    "edges": st.lists(st.tuples(st.integers(-1, 4), st.tuples(*[unit] * 4), st.integers(0, 12)),
                      min_size=1, max_size=5),
    "inserts": st.lists(inserts, min_size=1, max_size=40),
    # frame 0 is unknown, the others index the known frames; times run past
    # both ends of the stamp grid
    "lookups": st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(-4, 52)),
                        min_size=1, max_size=30),
})


def _unit(components):
    q = np.array(components)
    n = np.linalg.norm(q)
    return q / n if n > 0.1 else np.array(quat.IDENTITY)


def _edges_and_firsts(forest):
    """Edge i as (child, parent, base rotation), and each edge's first sample."""
    edges = [(f"f{i + 1}", "g" if p < 0 else f"f{min(p, i)}", _unit(base))
             for i, (p, base, *_) in enumerate(forest["edges"])]
    firsts = [(e, k, (float(e), 0.0, 0.0), (0.0,) * 4, "near")
              for e, (_, _, k, *_) in enumerate(forest["edges"])]
    return edges, firsts


def _insert_both(tree, ref, edges, insert):
    """One sample into the tree and the reference; both accept it or both
    raise ``TimeBoundsError``."""
    e, k, translation, components, kind = insert
    child, parent, base = edges[e % len(edges)]
    if kind.startswith("near"):
        q = _unit(base + 1e-3 * np.array(components))  # slerp's lerp branch
    else:
        q = _unit(components)
    if kind.endswith("flipped"):
        q = -q
    args = (parent, child, np.array(translation), q, 0.25 * k)
    try:
        ref.set_transform(*args)
    except TimeBoundsError:
        with pytest.raises(TimeBoundsError):
            tree.set_transform(Transform(*args))
        return
    tree.set_transform(Transform(*args))


def _lookup_both(tree, ref, target, source, at):
    """The tree's lookup is bit-identical to the reference's, or raises the
    same error type."""
    try:
        want = ref.lookup(target, source, at)
    except TfError as exc:
        with pytest.raises(type(exc)):
            tree.lookup(target, source, at)
        return
    got = tree.lookup(target, source, at)
    assert (got.parent, got.child, got.stamp) == (target, source, at)
    assert np.array(got.translation).tobytes() == want[0].tobytes()
    assert np.array(got.rotation).tobytes() == want[1].tobytes()


@given(forests)
@settings(max_examples=300, deadline=None)
def test_lookup_is_bit_identical_to_numpy_reference(forest):
    tree, ref = TransformTree(forest["horizon"]), _ReferenceTree(forest["horizon"])
    edges, firsts = _edges_and_firsts(forest)
    for insert in firsts + forest["inserts"]:
        _insert_both(tree, ref, edges, insert)
    known = sorted(tree.frames())
    for a, b, k in forest["lookups"]:
        target, source = (known[i % len(known)] if i else "ghost" for i in (a, b))
        _lookup_both(tree, ref, target, source, 0.0625 * k)


@given(st.fixed_dictionaries({
    # a short horizon on a 0.25 s stamp grid up to 3 s, so later batches
    # replace exact stamps, insert behind the newest sample and prune
    "horizon": st.sampled_from([1.0, 2.0]),
    "edges": st.lists(st.tuples(st.integers(-1, 4), st.tuples(*[unit] * 4),
                                st.integers(0, 12), st.integers(0, 2)),
                      min_size=1, max_size=5),
    "batches": st.lists(st.lists(inserts, max_size=8), min_size=2, max_size=4),
    # the same lookups after every batch; frame 0 is unknown, 1 and 2 the
    # roots, the others edges that may not exist yet
    "lookups": st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-4, 52)),
                        min_size=1, max_size=12),
}))
@settings(max_examples=200, deadline=None)
def test_lookups_between_writes_are_bit_identical_to_numpy_reference(forest):
    """Writes between repeated lookups: a lookup answered from the tree's
    memo of the previous one must still match the reference after any
    replacement, older insert, new edge or pruning insert."""
    tree, ref = TransformTree(forest["horizon"]), _ReferenceTree(forest["horizon"])
    edges, firsts = _edges_and_firsts(forest)
    frames = ["ghost", "f0", "g"] + [f"f{i}" for i in range(1, 6)]
    joins = [j for *_, j in forest["edges"]]
    for batch_index, batch in enumerate(forest["batches"]):
        # edge e joins the tree, with its first sample, in batch joins[e]
        new = [first for first, j in zip(firsts, joins) if j == batch_index]
        for insert in new + batch:
            if joins[insert[0] % len(edges)] <= batch_index:
                _insert_both(tree, ref, edges, insert)
        for _ in range(2):
            for a, b, k in forest["lookups"]:
                _lookup_both(tree, ref, frames[a], frames[b], 0.0625 * k)


@given(st.sampled_from([0.5, 2.0, 7.0]),
       st.lists(st.integers(0, 60), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_pruning_keeps_exactly_the_horizon(horizon, ks):
    tree = TransformTree(horizon)
    accepted = []
    for k in ks:
        stamp = 0.25 * k
        if accepted and stamp < max(accepted) - horizon:
            with pytest.raises(TimeBoundsError):
                tree.set_transform(Transform.identity("world", "a", stamp))
            continue
        tree.set_transform(Transform.identity("world", "a", stamp))
        accepted.append(stamp)
    newest = max(accepted)
    kept = sorted({s for s in accepted if s >= newest - horizon})
    edge = tree._edges["a"]
    assert edge.stamps == kept
    assert len(edge.samples) == len(kept)
    tree.lookup("world", "a", kept[0])
    with pytest.raises(TimeBoundsError):
        tree.lookup("world", "a", kept[0] - 0.125)


@pytest.mark.parametrize("translation, stamp", [
    ([math.nan, 0.0, 0.0], 1.0),
    ([0.0, math.inf, 0.0], 1.0),
    ([0.0, 0.0, -math.inf], 1.0),
    ([0.0, 0.0, 0.0], math.nan),
    ([0.0, 0.0, 0.0], math.inf),
])
def test_set_transform_rejects_non_finite_samples(translation, stamp):
    tree = TransformTree()
    with pytest.raises(ValueError):
        tree.set_transform(Transform("world", "a", translation, quat.IDENTITY, stamp))
    assert tree.frames() == set()
    tree.set_transform(Transform.identity("world", "a", 1.0))
    with pytest.raises(ValueError):
        tree.set_transform(Transform("world", "a", translation, quat.IDENTITY, stamp))
    assert tree._edges["a"].stamps == [1.0]


def test_parent_only_and_unknown_frames():
    tree = TransformTree()
    tree.set_transform(Transform("world", "a", np.array([1.0, 0.0, 0.0]),
                                 quat.IDENTITY, 0.0))
    assert tree.frames() == {"world", "a"}
    out = tree.lookup("world", "world", 5.0)  # a parent-only frame is known
    np.testing.assert_array_equal(out.translation, np.zeros(3))
    np.testing.assert_array_equal(out.rotation, quat.IDENTITY)
    np.testing.assert_array_equal(tree.lookup("a", "world", 0.0).translation, [-1.0, 0.0, 0.0])
    for target, source in (("ghost", "world"), ("world", "ghost"), ("ghost", "ghost")):
        with pytest.raises(UnknownFrameError, match="ghost"):
            tree.lookup(target, source, 0.0)


# -- the private constructor -----------------------------------------------------


def test_private_constructor_equals_checked_one():
    translation, rotation = (1.5, -0.0, 2.25), tuple(from_yaw(0.7).tolist())
    fast = _transform("w", "a", translation, rotation, 0.5)
    checked = Transform("w", "a", translation, rotation, 0.5)
    assert type(fast) is Transform
    for field in ("parent", "child", "stamp"):
        assert getattr(fast, field) == getattr(checked, field)
    for field in ("translation", "rotation"):
        got, want = getattr(fast, field), getattr(checked, field)
        assert type(got) is tuple and all(type(c) is float for c in got)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    assert fast == checked and hash(fast) == hash(checked)


def test_private_constructor_keeps_the_float_tuples_it_is_given():
    """The package hands ``_transform`` float tuples it has just computed; it
    keeps them as they are, since nothing can write into them."""
    p = (1.0, 2.0, 3.0)
    t = _transform("w", "a", p, quat.IDENTITY, 0.0)
    assert t.translation is p and t.rotation is quat.IDENTITY
    with pytest.raises(TypeError):
        t.translation[0] = 99.0


@pytest.mark.parametrize("translation, stamp", [
    ((math.nan, 0.0, 0.0), 1.0), ((0.0, -math.inf, 0.0), 1.0), ((0.0, 0.0, 0.0), math.nan),
])
def test_set_transform_checks_unchecked_transforms(translation, stamp):
    tree = TransformTree()
    with pytest.raises(ValueError):
        tree.set_transform(_transform("world", "a", translation, quat.IDENTITY, stamp))
    assert tree.frames() == set()


# -- the lookup memo -------------------------------------------------------------


def _moving_edge_tree(x1=2.0):
    tree = TransformTree()
    tree.set_transform(Transform("world", "a", np.zeros(3), quat.IDENTITY, 0.0))
    tree.set_transform(Transform("world", "a", np.array([x1, 0.0, 0.0]), from_yaw(1.0), 1.0))
    return tree


def test_repeated_lookup_returns_immutable_tuples():
    """No caller can write into a lookup's answer, so a memo hit, which hands
    out the walk's tuples again, always has the walk's bits."""
    tree = _moving_edge_tree()
    first = tree.lookup("world", "a", 0.25)
    for field in ("translation", "rotation"):
        with pytest.raises(TypeError):
            getattr(first, field)[0] = 99.0
    again = tree.lookup("world", "a", 0.25)
    walked = _moving_edge_tree().lookup("world", "a", 0.25)
    assert again == first == walked
    for field in ("translation", "rotation"):
        assert np.array(getattr(again, field)).tobytes() == np.array(
            getattr(walked, field)).tobytes()


def _is_float_tuple(value, n):
    return type(value) is tuple and len(value) == n and all(type(c) is float for c in value)


def test_every_transform_holds_float_tuples():
    """The checked constructor (from int, float32 and float64 arrays and from
    lists), ``_transform``, ``identity``, ``compose``, ``invert``, a lookup
    that walks the tree, a memo hit and a same-frame lookup all hold a
    ``quat.Vec3`` and a ``quat.Quat``, and ``apply`` returns a ``quat.Vec3``."""
    t = Transform("w", "a", np.array([1, 2, 3]), from_yaw(0.3), 0.0)
    u = Transform("a", "b", np.array([0.5, -1.0, 2.0], dtype=np.float32), [1, 0, 0, 0], 0.0)
    tree = TransformTree()
    tree.set_transform(t)
    tree.set_transform(u)
    made = [t, u, Transform("w", "c", [0, 1, 2], (1, 0, 0, 0)),
            _transform("w", "d", (1.0, 2.0, 3.0), quat.IDENTITY, 0.0),
            Transform.identity("w"), compose(t, u), invert(t),
            tree.lookup("w", "b", 0.0), tree.lookup("w", "b", 0.0), tree.lookup("b", "b", 0.0)]
    for x in made:
        assert _is_float_tuple(x.translation, 3) and _is_float_tuple(x.rotation, 4)
    for point in ([1, 2, 3], np.array([0.5, -1.0, 2.0]), (0.0, 0.0, 0.0)):
        assert _is_float_tuple(t.apply(point), 3)
    assert u.translation == (0.5, -1.0, 2.0)


def test_failed_lookup_succeeds_once_a_write_covers_its_time():
    tree = _moving_edge_tree()
    for _ in range(2):  # a failure is never remembered as an answer
        with pytest.raises(TimeBoundsError):
            tree.lookup("world", "a", 1.5)
    tree.set_transform(Transform("world", "a", np.array([4.0, 0.0, 0.0]),
                                 quat.IDENTITY, 2.0))
    out = tree.lookup("world", "a", 1.5)
    np.testing.assert_array_equal(out.translation, [3.0, 0.0, 0.0])
    assert out.stamp == 1.5


def test_trees_do_not_share_a_memo():
    near, far = _moving_edge_tree(x1=2.0), _moving_edge_tree(x1=8.0)
    for _ in range(2):
        np.testing.assert_array_equal(near.lookup("world", "a", 0.5).translation, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(far.lookup("world", "a", 0.5).translation, [4.0, 0.0, 0.0])


def test_transform_arithmetic_keeps_its_bits():
    """2,000 seeded ``compose``, ``invert``, ``apply`` and ``lookup`` results,
    with rotations far from the identity, hash to one pinned value: a change
    to the arithmetic of any quaternion kernel shows here."""
    rng = np.random.default_rng(12345)

    def unit_quat():
        while True:
            q = rng.normal(size=4)
            n = math.sqrt(sum(x * x for x in q.tolist()))
            if n > 0.1:
                q = q / n
                if abs(math.sqrt(sum(x * x for x in q.tolist())) - 1.0) <= 1e-9:
                    return q

    digest = hashlib.sha256()
    for _ in range(500):
        a = Transform("w", "a", rng.normal(size=3) * 10, unit_quat(), float(rng.uniform(0, 5)))
        b = Transform("a", "b", rng.normal(size=3) * 10, unit_quat(), float(rng.uniform(0, 5)))
        c, d = compose(a, b), invert(a)
        digest.update(np.array(c.translation).tobytes() + np.array(c.rotation).tobytes()
                      + repr(c.stamp).encode())
        digest.update(np.array(d.translation).tobytes() + np.array(d.rotation).tobytes())
        digest.update(np.asarray(a.apply(rng.normal(size=3) * 5)).tobytes())
    tree, frames = TransformTree(), ["world"]
    for k in range(12):
        parent = frames[int(rng.integers(0, len(frames)))]
        frames.append(f"f{k}")
        for stamp in range(6):
            tree.set_transform(Transform(parent, f"f{k}", rng.normal(size=3) * 3, unit_quat(),
                                         float(stamp)))
    for _ in range(500):
        target, source = (frames[int(j)] for j in rng.integers(0, len(frames), 2))
        out = tree.lookup(target, source, float(rng.uniform(0, 5)))
        digest.update(np.array(out.translation).tobytes() + np.array(out.rotation).tobytes())
    assert digest.hexdigest() == "00e683318429a1a37e2aa4409e927a66767637e85164075e2025f911763ada8b"
