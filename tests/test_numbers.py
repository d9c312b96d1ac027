"""The package's number and integer rules (``hmas.quat``) at every entry point
that takes a scalar: a number is kept as a float equal to ``float(x)`` and an
integer as an ``int`` equal to ``int(x)``; anything else, or a value outside
the entry point's range, is refused with that entry point's error, naming the
field. No entry point lets a TypeError or an OverflowError escape."""
import math
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmas import quat
from hmas.agents import (CONTROL_DT_S, AgentSpec, FollowCommand, Scenario, ScenarioAgent,
                         World)
from hmas.bag import BagError, BagWriter, read_bag, replay
from hmas.bench import SIDES, DistanceSeries, ExperimentSpec, summarize
from hmas.bus import Bus, QosProfile, SeededDropInjector, StampOrderError
from hmas.geo import (FIX_PERIOD_S, MAX_RUN_S, DisturbanceWindow, GeodeticCoord, Rover,
                      rtk_base)
from hmas.tf import TimeBoundsError, Transform, TransformTree

BASE = GeodeticCoord(48.70, 6.15, 220.0)
SERIES_END_S = 100.0
SERIES = DistanceSeries({side: (np.arange(0.0, SERIES_END_S + 1.0), np.full(101, 0.9))
                         for side in SIDES})
NUMBER_TYPES = (int, float, Fraction, np.float32, np.float64, np.int64)


def is_number(x) -> bool:
    """The number rule, written apart from ``hmas.quat`` for the values drawn
    here: a real number that is not a bool and is finite as a float."""
    try:
        return type(x) in NUMBER_TYPES and math.isfinite(float(x))
    except OverflowError:
        return False


def _published_stamp(stamp):
    bus = Bus()
    node = bus.create_node("a", "n")
    sub = bus.subscribe(node, "t")
    bus.advertise(node, "t").publish(stamp, b"")
    return bus.take(sub).stamp


def _written_stamp(stamp):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.bag"
        with BagWriter(path) as writer:
            writer.append("/a/t", stamp, b"")
        (record,) = read_bag(path)
        return record.stamp


def _replayed(rate) -> None:
    """Replays a one-record bag (nothing to wait for) at ``rate``; keeps nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.bag"
        with BagWriter(path) as writer:
            writer.append("/a/t", 1.0, b"")
        replay(path, Bus(), rate=rate)


def _polled(now) -> None:
    rtk_base(Bus()).poll(now)


def _tree() -> TransformTree:
    """world -> a, buffered over [-2000, 2000] s."""
    tree = TransformTree(horizon_s=1e4)
    for stamp in (-2000.0, 2000.0):
        tree.set_transform(Transform("world", "a", (stamp, 0.0, 0.0), quat.IDENTITY, stamp))
    return tree


def _any(x: float) -> bool:
    return True


def _positive(x: float) -> bool:
    return x > 0.0


def _ground(max_speed=1.0) -> AgentSpec:
    return AgentSpec("spot", "ground", max_speed)


# entry point -> (the field its refusals name, its error, enter(value) -> the
# float it keeps or None, whether a float is in its range)
SCALAR_ENTRIES = {
    "transform_stamp": ("stamp", ValueError,
                        lambda v: Transform.identity("w", "a", v).stamp, _any),
    "tree_horizon": ("horizon", ValueError, lambda v: TransformTree(v)._horizon, _positive),
    "lookup_time": ("time", TimeBoundsError,
                    lambda v: _tree().lookup("world", "a", v).stamp, lambda x: abs(x) <= 2000.0),
    "self_lookup_time": ("time", TimeBoundsError, lambda v: _tree().lookup("a", "a", v).stamp,
                         _any),
    "publish_stamp": ("stamp", StampOrderError, _published_stamp, lambda x: x >= 0.0),
    "drop_rate": ("drop_rate", ValueError, lambda v: SeededDropInjector(v, 0).drop_rate,
                  lambda x: 0.0 <= x <= 1.0),
    "bag_stamp": ("stamp", BagError, _written_stamp, _any),
    "replay_rate": ("rate", ValueError, _replayed, _positive),
    "latitude": ("latitude", ValueError, lambda v: GeodeticCoord(v, 6.15, 220.0).lat,
                 lambda x: -90.0 <= x <= 90.0),
    "longitude": ("longitude", ValueError, lambda v: GeodeticCoord(48.7, v, 220.0).lon,
                  lambda x: -180.0 < x <= 180.0),
    "altitude": ("altitude", ValueError, lambda v: GeodeticCoord(48.7, 6.15, v).alt, _any),
    "disturbance_start": ("start_s", ValueError,
                          lambda v: DisturbanceWindow(v, 1e4, (0.0, 0.0, 0.0)).start_s, _any),
    "disturbance_end": ("end_s", ValueError,
                        lambda v: DisturbanceWindow(-1e4, v, (0.0, 0.0, 0.0)).end_s, _any),
    "poll_time": ("correction poll time", ValueError, _polled, _any),
    "fix_stamp": ("fix stamp", ValueError, lambda v: Rover("r").step(BASE, (), v).stamp, _any),
    "max_speed": ("max_speed", ValueError, lambda v: _ground(v).max_speed, _positive),
    "standoff": ("standoff", ValueError, lambda v: FollowCommand("a", "b", standoff=v).standoff,
                 _positive),
    "script_speed": ("script speed", ValueError,
                     lambda v: ScenarioAgent(_ground(), (0.0, 0.0, 0.0), speed=v).speed,
                     _positive),
    "scenario_duration": ("duration_s", ValueError,
                          lambda v: Scenario(BASE, 0, v, (), ()).duration_s,
                          lambda x: CONTROL_DT_S <= x <= MAX_RUN_S),
    "world_bounds": ("bounds_m", ValueError, lambda v: World(BASE, bounds_m=v).bounds_m,
                     _positive),
    "experiment_duration": ("duration", ValueError,
                            lambda v: ExperimentSpec("static", v, 0).duration_s,
                            lambda x: FIX_PERIOD_S <= x <= MAX_RUN_S),
    "board_side": ("board side", ValueError,
                   lambda v: ExperimentSpec("static", 10.0, 0, side_m=v).side_m, _positive),
    "expected_side": ("expected side", ValueError,
                      lambda v: summarize(SERIES, v, convergence_s=5.0).expected_side_m,
                      _positive),
    "convergence": ("convergence", ValueError,
                    lambda v: summarize(SERIES, 0.9, convergence_s=v).convergence_s,
                    lambda x: 0.0 <= x <= SERIES_END_S),
}

# values that are not numbers and that an entry point keeps: a bag may hold an
# infinite float stamp (a replay refuses it), and a replay without a rate is fast
ALSO_KEPT = {"bag_stamp": lambda v: type(v) is float and math.isinf(v),
             "replay_rate": lambda v: v is None}

scalars = st.one_of(
    st.sampled_from([True, False, np.True_, 10**400, -10**400, Fraction(10**400), "1", None,
                     math.nan, math.inf, -math.inf, [0.5]]),
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3, width=32).map(np.float32),
    st.integers(-1000, 1000),
    st.integers(-1000, 1000).map(np.int64),
    st.fractions(-1000, 1000, max_denominator=64),
)


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRIES))
@given(value=scalars)
@example(value=True)
@example(value=np.True_)
@example(value=10**400)
@example(value="1")
@example(value=None)
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=np.float32(0.5))
@example(value=np.int64(1))
@example(value=Fraction(1, 2))
@example(value=0.75)
@settings(max_examples=60, deadline=None)
def test_every_scalar_input_passes_one_rule(entry, value):
    """Kept as a float equal to ``float(value)`` exactly when it is a number
    in the entry point's range (or in ``ALSO_KEPT``); otherwise refused with
    the entry point's error naming the field."""
    field, error, enter, in_range = SCALAR_ENTRIES[entry]
    also_kept = ALSO_KEPT.get(entry, lambda v: False)(value)
    if is_number(value) and in_range(float(value)) or also_kept:
        kept = enter(value)
        assert kept is None or (type(kept) is float and kept == float(value))
    else:
        with pytest.raises(error, match=re.escape(field)):
            enter(value)


# entry point -> (the field its refusals name, enter(value) -> the int it keeps
# or None, whether an int is in its range)
INTEGER_ENTRIES = {
    "scenario_seed": ("seed", lambda v: Scenario(BASE, v, 1.0, (), ()).seed, lambda n: n >= 0),
    "experiment_seed": ("seed", lambda v: ExperimentSpec("static", 10.0, v).seed,
                        lambda n: n >= 0),
    "world_seed": ("seed", lambda v: World(BASE, seed=v)._seed_root.entropy, lambda n: n >= 0),
    "drop_seed": ("seed", lambda v: SeededDropInjector(0.5, v) and None, lambda n: n >= 0),
    "history_depth": ("history_depth", lambda v: QosProfile(history_depth=v).history_depth,
                      lambda n: 1 <= n <= sys.maxsize),
}

integers = st.one_of(
    st.sampled_from([True, False, np.True_, 1.0, 2.5, np.float64(3.0), Fraction(2, 1), "1", None,
                     math.nan, 10**400, sys.maxsize, sys.maxsize + 1, -1]),
    st.integers(-5, 10**6),
    st.integers(-5, 10**6).map(np.int64),
)


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
@given(value=integers)
@example(value=True)
@example(value=np.True_)
@example(value=None)
@example(value=1.0)
@example(value=np.int64(3))
@example(value=10**400)
@settings(max_examples=40, deadline=None)
def test_every_seed_and_depth_passes_one_rule(entry, value):
    """Kept as an ``int`` equal to ``int(value)`` exactly when it is an integer
    (not a bool) in the entry point's range; otherwise a ValueError naming the field."""
    field, enter, in_range = INTEGER_ENTRIES[entry]
    if type(value) in (int, np.int64) and in_range(int(value)):
        kept = enter(value)
        assert kept is None or (type(kept) is int and kept == int(value))
    else:
        with pytest.raises(ValueError, match=re.escape(field)):
            enter(value)


def test_the_number_rule_is_the_vector_rule_entry_by_entry():
    """``_finite_floats`` keeps a vector exactly when ``_finite_float`` keeps
    each entry, with the same floats."""
    entries = [0.5, 2, np.float32(0.25), np.int64(-3), Fraction(1, 4), True, np.True_, "1",
               None, math.nan, math.inf, 10**400]
    for a in entries:
        for b in entries:
            try:
                want = (quat._finite_float(a, "v"), quat._finite_float(b, "v"))
            except ValueError:
                with pytest.raises(ValueError, match="v must be 2 finite numbers"):
                    quat._finite_floats((a, b), 2, "v")
            else:
                assert quat._finite_floats((a, b), 2, "v") == want


# -- refusals the parent let through -------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: ExperimentSpec("static", 2.0, None),
    lambda: ExperimentSpec("static", 2.0, True),
    lambda: ExperimentSpec("static", 2.0, -1),
    lambda: SeededDropInjector(0.5, None),
    lambda: World(BASE, seed=None),
    lambda: World(BASE, seed=-1),
], ids=["spec_none", "spec_bool", "spec_negative", "injector_none", "world_none",
        "world_negative"])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused(build):
    """A None seed used to draw from OS entropy, so two runs of one spec
    wrote different bags."""
    with pytest.raises(ValueError, match="seed"):
        build()


def test_a_depth_too_large_for_a_queue_is_refused_at_construction():
    """It used to build and then raise OverflowError at ``subscribe``."""
    for depth in (10**400, sys.maxsize + 1):
        with pytest.raises(ValueError, match="history_depth"):
            QosProfile(history_depth=depth)
    assert QosProfile(history_depth=np.int64(8)).history_depth == 8


@pytest.mark.parametrize("noiseless", ["no", 1, None, np.True_])
def test_experiment_noiseless_must_be_true_or_false(noiseless):
    """``noiseless="no"`` used to build and run noiseless."""
    with pytest.raises(ValueError, match="noiseless must be true or false"):
        ExperimentSpec("static", 2.0, 1, noiseless=noiseless)


@pytest.mark.parametrize("noiseless", ["no", 1, None, np.True_])
def test_world_noiseless_must_be_true_or_false(noiseless):
    """``World(base, noiseless="no").noiseless`` used to be ``"no"``."""
    with pytest.raises(ValueError, match="noiseless must be true or false"):
        World(BASE, noiseless=noiseless)
    assert World(BASE, noiseless=True).noiseless is True


@pytest.mark.parametrize("noiseless", ["no", 1, None, np.True_])
def test_rover_noiseless_must_be_true_or_false(noiseless):
    """``Rover("r", 0, noiseless="no")`` used to build a noiseless rover."""
    with pytest.raises(ValueError, match="noiseless must be true or false"):
        Rover("r", 0, noiseless=noiseless)
    assert Rover("r", 0, noiseless=False).bias_en != (0.0, 0.0)


@pytest.mark.parametrize("bias", [("1", 0.0), (math.nan, 0.0), (0.0, math.inf), (True, 0.0),
                                  (0.0, 0.0, 0.0), (0.1,), "ab", 0.1])
def test_a_rover_bias_is_two_finite_numbers(bias):
    """A string or NaN bias used to be kept, and to reach every fix."""
    for noiseless in (False, True):
        with pytest.raises(ValueError, match="bias_en must be 2 finite numbers"):
            Rover("r", bias_en=bias, noiseless=noiseless)
    bias_en = Rover("r", bias_en=[np.float64(0.1), -2]).bias_en
    assert bias_en == (0.1, -2.0) and all(type(v) is float for v in bias_en)


@pytest.mark.parametrize("altitude_range", [(math.nan, 10.0), (1.0, 5.0, 9.0), ("1", "5"),
                                            (True, 5.0), 5.0])
@pytest.mark.parametrize("category", ["aerial", "ground"])
def test_an_altitude_range_is_two_finite_numbers(altitude_range, category):
    """NaN, three entries and strings used to build; strings then crashed
    ``spawn_agent`` with a bare TypeError."""
    with pytest.raises(ValueError, match="altitude_range must be 2 finite numbers"):
        AgentSpec("anafi", category, 5.0, altitude_range=altitude_range)
    spec = AgentSpec("anafi", category, 5.0, altitude_range=[1, np.float32(50.0)])
    assert spec.altitude_range == (1.0, 50.0)
    assert all(type(v) is float for v in spec.altitude_range)
