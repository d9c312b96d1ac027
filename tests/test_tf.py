"""Transform tree: composition laws, interpolation, lookup over random forests."""
import dataclasses
import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmas import quat
from hmas.agents import (DEFAULT_FIX_RATE_HZ, AgentSpec, FollowCommand, Scenario,
                         ScenarioAgent, SensorSpec, run_scenario)
from hmas.bus import SeededDropInjector
from hmas.tf import (DEFAULT_HORIZON_S, CycleError, DisconnectedFramesError, TfError,
                     TimeBoundsError, Transform, TransformTree, UnknownFrameError,
                     _transform, compose, invert)

from quat_oracle import from_axis_angle, from_yaw, to_matrix
from tf_oracle import _WRITTEN_DOT, _ReferenceTree


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

    @pytest.mark.parametrize("stamp", [True, "1", None, np.True_],
                             ids=["bool", "str", "none", "numpy_bool"])
    def test_a_stamp_that_is_not_a_number_is_refused(self, stamp):
        """A bool stamp used to build a transform stamped True, and a string
        stamp raised a bare TypeError."""
        with pytest.raises(ValueError, match=f"stamp must be a finite number, got {stamp!r}"):
            Transform("w", "a", (0.0, 0.0, 0.0), quat.IDENTITY, stamp)

    def test_a_stamp_too_large_for_a_float_is_refused(self):
        """Such a stamp used to escape as OverflowError; a valid stamp is kept
        as a float."""
        for stamp in (10**400, -10**400, Fraction(10**400)):
            with pytest.raises(ValueError, match="stamp must be a finite number, got "):
                Transform("w", "a", (0.0, 0.0, 0.0), quat.IDENTITY, stamp)
        for stamp in (5, 2.5, Fraction(1, 2), np.float64(3.0), np.int64(7)):
            kept = Transform("w", "a", (0.0, 0.0, 0.0), quat.IDENTITY, stamp).stamp
            assert type(kept) is float and kept == float(stamp)

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

    def test_compose_and_invert_equal_a_lookup_of_their_chain(self, rng):
        """Both rotations have norm 1 + 0.9e-9, inside ``QUAT_NORM_TOL``: compose
        used to re-check its product, of norm about 1 + 1.8e-9, and raise, while
        a lookup of the same two-edge chain returned it. Equal bit for bit, up to
        ``canonicalize``, which a lookup applies."""
        scale = 1.0 + 0.9e-9
        for _ in range(500):
            qa, qb = (scale * random_quat(rng) for _ in range(2))
            a = Transform("world", "a", rng.uniform(-5, 5, 3), qa, 1.0)
            b = Transform("a", "b", rng.uniform(-5, 5, 3), qb, 1.0)
            tree = TransformTree()
            tree.set_transform(a)
            tree.set_transform(b)
            for got, want in ((compose(a, b), tree.lookup("world", "b", 1.0)),
                              (invert(a), tree.lookup("a", "world", 1.0))):
                assert (got.parent, got.child, got.stamp) == (want.parent, want.child, want.stamp)
                assert got.translation == want.translation
                assert quat.canonicalize(got.rotation) == want.rotation

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

    def test_a_horizon_that_is_not_a_number_is_refused(self):
        """A bool horizon used to build a 1 s tree, and a string or None raised
        a bare TypeError; a valid horizon is kept as a float."""
        for horizon in (True, False, np.True_, "1", None, 10**400):
            with pytest.raises(ValueError, match=re.escape(
                    f"horizon must be a finite number, got {horizon!r}")):
                TransformTree(horizon)
        for horizon in (5, 2.5, Fraction(1, 2), np.float64(3.0)):
            kept = TransformTree(horizon)._horizon
            assert type(kept) is float and kept == float(horizon)

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


# -- float kernels against their formulas and numpy arithmetic -----------------

finite = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150, allow_nan=False))


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


# -- the lookup time, the memo's answer and the edge-path cache ------------------


def test_a_memo_hit_returns_the_transform_the_lookup_built():
    tree = _moving_edge_tree()
    first = tree.lookup("world", "a", 0.25)
    again = tree.lookup("world", "a", 0.25)
    assert again is first and again.stamp == 0.25
    tree.set_transform(Transform.identity("world", "b", 0.0))  # any write clears the memo
    walked = tree.lookup("world", "a", 0.25)
    assert walked is not first and walked == first


@pytest.mark.parametrize("at", [np.float64(0.5), np.float32(0.5), 0.5, Fraction(1, 2), 0, 1],
                         ids=["float64", "float32", "float", "fraction", "int0", "int1"])
def test_a_lookup_time_is_taken_as_a_float(at):
    """A numpy time used to build a transform of numpy scalars, which the memo
    then handed to a later caller asking with a float."""
    for target, source in (("world", "a"), ("a", "a")):
        tree = _moving_edge_tree()
        for when in (at, float(at), at):
            out = tree.lookup(target, source, when)
            assert type(out.stamp) is float and out.stamp == float(at)
            assert _is_float_tuple(out.translation, 3) and _is_float_tuple(out.rotation, 4)
        assert out == _moving_edge_tree().lookup(target, source, float(at))


@pytest.mark.parametrize("at", [True, False, np.True_, "0.5", None, [0.5], 10**400],
                         ids=["true", "false", "numpy_bool", "str", "none", "list", "huge_int"])
def test_a_lookup_time_that_is_not_a_number_is_refused(at):
    """A bool used to stamp a lookup between frames with True and raised
    ValueError from a frame to itself; a string raised a bare TypeError."""
    tree = _moving_edge_tree()
    for target, source in (("world", "a"), ("a", "world"), ("a", "a"), ("world", "world")):
        for _ in range(2):
            with pytest.raises(TimeBoundsError,
                               match=re.escape(f"time must be a finite number, got {at!r}")):
                tree.lookup(target, source, at)
    tree.lookup("world", "a", 1.0)  # True == 1.0: a memo at 1.0 does not answer True
    with pytest.raises(TimeBoundsError):
        tree.lookup("world", "a", True)


def test_a_bad_time_is_refused_after_the_frames_are_checked():
    tree = _moving_edge_tree()
    tree.set_transform(Transform.identity("other", "b", 0.0))
    with pytest.raises(UnknownFrameError):
        tree.lookup("world", "ghost", "0.5")
    with pytest.raises(DisconnectedFramesError):
        tree.lookup("a", "b", True)


def _bits_of(t: Transform) -> bytes:
    return np.array(t.translation).tobytes() + np.array(t.rotation).tobytes()


def _two_branches(tree, root="r"):
    """``root`` -> a -> a2 and ``root`` -> b, each edge moving over [0, 1]."""
    for parent, child, x, yaw in ((root, "a", 1.0, 0.4), ("a", "a2", -2.0, 1.1),
                                  (root, "b", 3.0, -0.7)):
        tree.set_transform(Transform(parent, child, (x, 0.5, 0.0), from_yaw(yaw), 0.0))
        tree.set_transform(Transform(parent, child, (x, -1.5, 2.0), from_yaw(2 * yaw), 1.0))


def test_a_cached_path_keeps_its_bits_when_its_root_gains_a_parent():
    tree = TransformTree()
    _two_branches(tree)
    pairs = [("a2", "b"), ("b", "a2"), ("r", "a2"), ("a", "a2")]
    before = {pair: _bits_of(tree.lookup(*pair, 0.3)) for pair in pairs}
    tree.set_transform(Transform("top", "r", (5.0, 0.0, 0.0), from_yaw(0.2), 0.3))
    fresh = TransformTree()
    _two_branches(fresh)
    fresh.set_transform(Transform("top", "r", (5.0, 0.0, 0.0), from_yaw(0.2), 0.3))
    for pair in pairs:
        assert _bits_of(tree.lookup(*pair, 0.3)) == before[pair]
        assert _bits_of(fresh.lookup(*pair, 0.3)) == before[pair]
    assert _bits_of(tree.lookup("top", "a2", 0.3)) == _bits_of(fresh.lookup("top", "a2", 0.3))


def test_a_disconnected_pair_resolves_once_an_edge_joins_its_trees():
    other = [Transform("s", "c", (0.0, 2.0, 0.0), from_yaw(0.9), 0.0),
             Transform("s", "c", (1.0, 2.0, 0.0), from_yaw(0.8), 1.0)]
    join = Transform("r", "s", (4.0, -1.0, 0.5), from_yaw(-0.3), 0.5)
    tree, fresh = TransformTree(), TransformTree()
    _two_branches(tree)
    for t in other:
        tree.set_transform(t)
    for _ in range(2):
        with pytest.raises(DisconnectedFramesError):
            tree.lookup("a2", "c", 0.5)
    tree.lookup("a2", "b", 0.5)  # cache a connected pair of the same tree
    tree.set_transform(join)
    _two_branches(fresh)
    for t in other + [join]:
        fresh.set_transform(t)
    for pair in (("a2", "c"), ("c", "a2"), ("a2", "b")):
        assert _bits_of(tree.lookup(*pair, 0.5)) == _bits_of(fresh.lookup(*pair, 0.5))


def test_an_unknown_frame_still_raises_after_other_pairs_are_cached():
    tree = TransformTree()
    _two_branches(tree)
    for pair in (("a2", "b"), ("r", "a"), ("b", "b")):
        tree.lookup(*pair, 0.5)
    for target, source in (("a2", "ghost"), ("ghost", "b"), ("ghost", "ghost")):
        for _ in range(2):
            with pytest.raises(UnknownFrameError, match="ghost"):
                tree.lookup(target, source, 0.5)


def _two_lossy_teams(base, seed, duration_s):
    gps = (SensorSpec("gps", "gnss", (0.0, 0.0, 0.3)),)
    members, commands = [], []
    for team, y0 in (("a", 0.0), ("b", 30.0)):
        members += [
            ScenarioAgent(AgentSpec(f"operator_{team}", "human", 1.5, sensors=gps),
                          (0.0, y0, 0.0), ((6.0, y0 + 3.0, 0.0), (-4.0, y0 - 2.0, 0.0)), 1.0),
            ScenarioAgent(AgentSpec(f"ground_{team}", "ground", 2.0, sensors=gps),
                          (-2.0, y0 - 1.0, 0.0)),
            ScenarioAgent(AgentSpec(f"aerial_{team}", "aerial", 3.0, altitude_range=(2.0, 30.0),
                                    sensors=gps), (-2.0, y0 + 1.0, 10.0))]
        commands += [FollowCommand(f"ground_{team}", f"operator_{team}", (0.0, -1.0)),
                     FollowCommand(f"aerial_{team}", f"operator_{team}", (-2.0, 0.0), 1.0)]
    return Scenario(base, seed, duration_s, tuple(members), tuple(commands))


def test_fleet_lookups_are_bit_identical_to_numpy_reference(base):
    """A lossy two-team scenario with a TF consumer like the fleet benchmark's,
    half a fix period behind each agent's latest fix: every lookup, memo hits
    and misses alike, equals the reference tree fed the same writes, or both
    raise the same error."""
    ref = _ReferenceTree(DEFAULT_HORIZON_S)
    last: dict[str, Transform] = {}
    counts = {"hit": 0, "miss": 0, "failed": 0}

    def on_world(world):
        world.bus.set_fault_injector(SeededDropInjector(0.05, 3))
        write = world.tree.set_transform

        def set_transform(t):
            write(t)
            ref.set_transform(t.parent, t.child, np.array(t.translation), t.rotation, t.stamp)
        world.tree.set_transform = set_transform

    def on_step(world):
        for name, agent in world.agents.items():
            latest = agent.odom_stamp if agent.odom_stamp is not None else 0.0
            at = latest - 0.5 / DEFAULT_FIX_RATE_HZ
            try:
                want = ref.lookup("world", f"{name}/gps", at)
            except TfError as exc:
                with pytest.raises(type(exc)):
                    world.tree.lookup("world", f"{name}/gps", at)
                counts["failed"] += 1
                continue
            got = world.tree.lookup("world", f"{name}/gps", at)
            counts["hit" if got is last.get(name) else "miss"] += 1
            last[name] = got
            assert (got.parent, got.child, got.stamp) == ("world", f"{name}/gps", at)
            assert np.array(got.translation).tobytes() == want[0].tobytes()
            assert np.array(got.rotation).tobytes() == want[1].tobytes()

    run_scenario(_two_lossy_teams(base, 11, 2.5), on_step=on_step, on_world=on_world)
    assert sum(counts.values()) == 6 * 350
    assert counts["hit"] > 5 * counts["miss"] > 0 and counts["failed"] > 0


def test_readers_share_the_caches_with_a_writer():
    """Lookups of several pairs, hits and misses, between the writes of one
    writer that adds samples and, halfway, gives the root a parent: every
    answer is the closed form of the samples it read."""
    tree = TransformTree(horizon_s=1000.0)
    pairs = [("world", "a2"), ("a2", "world"), ("a", "a2"), ("world", "a")]
    expected = {("world", "a2"): lambda s: (s, 1.0, 0.0), ("a2", "world"): lambda s: (-s, -1.0, 0.0),
                ("a", "a2"): lambda s: (0.0, 1.0, 0.0), ("world", "a"): lambda s: (s, 0.0, 0.0)}

    def write(stamp):
        tree.set_transform(Transform("world", "a", (stamp, 0.0, 0.0), quat.IDENTITY, stamp))
        tree.set_transform(Transform("a", "a2", (0.0, 1.0, 0.0), quat.IDENTITY, stamp))

    write(0.0)
    for i in range(1, 300):
        write(float(i))
        if i == 150:
            tree.set_transform(Transform.identity("top", "world", 0.0))
        for pair in pairs:
            for stamp in (float(i // 2), float(i)):  # an old stamp, then the new one
                out = tree.lookup(*pair, stamp)
                assert (out.translation, out.rotation, out.stamp) == (
                    expected[pair](stamp), quat.IDENTITY, stamp)
            assert tree.lookup(*pair, float(i)) is out  # a memo hit
