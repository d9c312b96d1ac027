"""Rover fix model: quality ladder, noise statistics, corrections on the bus."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmas.bus import Bus, QosProfile, SeededDropInjector
from hmas.geo import (CORRECTION_QOS, CORRECTION_TOPIC, DISTURBANCE_DECAY_S, CorrectionMsg,
                      DisturbanceWindow, GRADE_SIGMAS, FixQuality, GeodeticCoord, Rover,
                      enu_to_geodetic, geodetic_to_enu, rtk_base, take_corrections)

BASE = GeodeticCoord(48.70, 6.15, 220.0)
FRESH = [CorrectionMsg(1, 0.0)]
QUALITIES = tuple(FixQuality)  # the order quality codes index
BEST_EFFORT = QosProfile()  # the fault injector drops only best-effort deliveries


def corrections_at(epoch, stamp):
    return [CorrectionMsg(epoch, stamp)]


def rtk_feed(qos=CORRECTION_QOS, drop_rate=0.0, seed=0, rovers=1):
    """A bus whose SeededDropInjector drops ``drop_rate`` of the droppable
    deliveries, an RTK base on it, and ``rovers`` correction subscriptions
    with ``qos``: (bus, link, subscriptions)."""
    bus = Bus()
    bus.set_fault_injector(SeededDropInjector(drop_rate, seed))
    link = rtk_base(bus)
    subs = [bus.subscribe(bus.create_node(f"rover_{i}", "gps"), CORRECTION_TOPIC.full, qos)
            for i in range(rovers)]
    return bus, link, subs


def test_noiseless_fixes_equal_truth_exactly():
    rover = Rover("r", seed=3, noiseless=True)
    truth = GeodeticCoord(48.7001, 6.1501, 221.5)
    for i in range(1, 50):
        fix = rover.step(truth, FRESH if i == 1 else (), i / 14.0)
        assert fix is not None
        assert fix.position == truth  # bit-exact short circuit


def test_quality_climbs_stepwise_and_never_regresses_when_fresh():
    rover = Rover("r", seed=0, noiseless=True)
    truth = BASE
    seen = []
    bus, link, (sub,) = rtk_feed()
    reached_fixed_at = None
    for i in range(1, 200):
        now = i / 14.0
        link.poll(now)
        fix = rover.step(truth, take_corrections(bus, sub), now)
        seen.append(fix.quality)
        if reached_fixed_at is None and fix.quality is FixQuality.FIXED:
            reached_fixed_at = i
    assert seen[0] is FixQuality.SINGLE  # no corrections ingested yet
    assert reached_fixed_at is not None
    # one grade per fix, no single<->fixed jumps
    order = [FixQuality.SINGLE, FixQuality.FLOAT, FixQuality.FIXED]
    for a, b in zip(seen, seen[1:]):
        assert abs(order.index(a) - order.index(b)) <= 1
    assert all(q is FixQuality.FIXED for q in seen[reached_fixed_at:])


def test_quality_degrades_stepwise_when_corrections_withheld():
    rover = Rover("r", seed=0, noiseless=True)
    # reach fixed with a fresh correction, then starve it
    rover.step(BASE, corrections_at(1, 0.0), 1 / 14.0)
    rover.step(BASE, (), 2 / 14.0)
    assert rover.quality is FixQuality.FIXED
    timeline = {}
    for i in range(3, int(14 * 16)):
        now = i / 14.0
        fix = rover.step(BASE, (), now)
        timeline[round(now, 3)] = fix.quality
    # staleness <= 5 s: fixed; <= 10 s: float; beyond: single
    assert timeline[4.929] is FixQuality.FIXED
    assert timeline[5.929] is FixQuality.FLOAT
    assert timeline[10.929] is FixQuality.SINGLE


def test_degraded_mode_sigma_rises_to_single_value():
    rover = Rover("r", seed=7, bias_en=(0.0, 0.0))
    errors = []
    for i in range(1, 2001):
        fix = rover.step(BASE, (), i / 14.0)  # never corrected: single mode
        east, north, _ = geodetic_to_enu(fix.position, BASE)
        errors.append((east, north))
    errors = np.array(errors)
    sigma_h, _ = GRADE_SIGMAS[FixQuality.SINGLE]
    assert np.std(errors[:, 0]) == pytest.approx(sigma_h, rel=0.15)
    assert np.std(errors[:, 1]) == pytest.approx(sigma_h, rel=0.15)


def test_fixed_mode_noise_statistics_match_configured_sigma():
    rover = Rover("r", seed=42, bias_en=(0.0, 0.0))
    bus, link, (sub,) = rtk_feed()
    samples = []
    for i in range(1, 1101):
        now = i / 14.0
        link.poll(now)
        fix = rover.step(BASE, take_corrections(bus, sub), now)
        if fix.quality is FixQuality.FIXED:
            samples.append(geodetic_to_enu(fix.position, BASE))
    samples = np.array(samples[:1000])
    assert len(samples) == 1000
    sigma_h, sigma_v = GRADE_SIGMAS[FixQuality.FIXED]
    assert np.std(samples[:, 0]) == pytest.approx(sigma_h, rel=0.15)
    assert np.std(samples[:, 1]) == pytest.approx(sigma_h, rel=0.15)
    assert np.std(samples[:, 2]) == pytest.approx(sigma_v, rel=0.15)


def test_same_seed_reproduces_fixes_exactly():
    def run():
        rover = Rover("r", seed=99)
        bus, link, (sub,) = rtk_feed()
        out = []
        for i in range(1, 200):
            now = i / 14.0
            link.poll(now)
            out.append(rover.step(BASE, take_corrections(bus, sub), now))
        return out

    assert run() == run()


def test_default_bias_draw_is_bounded():
    for seed in range(30):
        rover = Rover("r", seed=seed)
        assert math.hypot(*rover.bias_en) <= 0.20


def test_fix_is_stamped_as_its_caller_says():
    rover = Rover("r", seed=0, noiseless=True)
    stamps = [0.05, 0.3, 1 / 14.0 * 7, 100.0]  # off the 14 Hz grid and far apart
    assert [rover.step(BASE, (), s).stamp for s in stamps] == stamps


def test_time_going_backwards_rejected():
    rover = Rover("r", seed=0, noiseless=True)
    rover.step(BASE, (), 1.0)
    with pytest.raises(ValueError, match="later than the last fix's, 1.0"):
        rover.step(BASE, (), 0.5)


BAD_STAMPS = {"nan": math.nan, "inf": math.inf, "minus_inf": -math.inf,
              "equal": 1.0, "decreasing": 0.5}


@pytest.mark.parametrize("bad", sorted(BAD_STAMPS))
def test_step_refuses_a_stamp_not_finite_and_later(bad):
    """One stamp rule for ``step`` and ``step_batch``: finite and later than
    the last fix's (1 s here). A refused stamp ingests nothing and moves no state."""
    def rover():
        r = Rover("r", seed=4)
        r.step(BASE, (), 1.0)
        return r

    scalar, batched, reference = rover(), rover(), rover()
    stamp = BAD_STAMPS[bad]
    with pytest.raises(ValueError, match="finite and later than the last fix's"):
        scalar.step(BASE, corrections_at(1, 0.5), stamp)
    # bad against the last fix, or against its neighbour 1.5 inside the batch
    for stamps in ([stamp], [stamp, 2.0], [1.5, stamp + 0.5, 3.0]):
        truth = np.array([[BASE.lat, BASE.lon, BASE.alt]] * len(stamps))
        with pytest.raises(ValueError, match="finite, increasing and later than the last fix's"):
            batched.step_batch(truth, np.array(stamps), [corrections_at(1, 0.5)] * len(stamps))
    want = reference.step(BASE, (), 2.0)
    assert scalar.step(BASE, (), 2.0) == want
    assert batched.step(BASE, (), 2.0) == want


def test_correction_epoch_must_increase():
    rover = Rover("r", seed=0, noiseless=True)
    rover.receive_correction(CorrectionMsg(5, 1.0))
    with pytest.raises(ValueError, match="epoch"):
        rover.receive_correction(CorrectionMsg(5, 2.0))


class TestCorrectionLink:
    def test_cadence(self):
        bus, link, (sub,) = rtk_feed(QosProfile(history_depth=8))
        assert link.poll(3.5) == 3
        msgs = take_corrections(bus, sub)
        assert [m.epoch for m in msgs] == [1, 2, 3]
        assert [m.stamp for m in msgs] == [1.0, 2.0, 3.0]  # stamped at send time
        assert link.poll(4.0) == 1
        assert [m.epoch for m in take_corrections(bus, sub)] == [4]
        assert link.poll(4.5) == 0
        assert take_corrections(bus, sub) == []

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus_inf"])
    def test_non_finite_time_refused(self, now):
        """A non-finite time raises: no epoch is ever due at NaN, and every one at inf."""
        bus, link, (sub,) = rtk_feed(QosProfile(history_depth=8))
        with pytest.raises(ValueError, match=f"must be finite, got {now}"):
            link.poll(now)
        assert take_corrections(bus, sub) == []
        assert link.poll(2.0) == 2

    def test_full_drop(self):
        bus, link, (sub,) = rtk_feed(BEST_EFFORT, drop_rate=1.0, seed=1)
        for t in range(1, 101):
            link.poll(float(t))
            assert take_corrections(bus, sub) == []

    def test_seeded_drops_are_reproducible(self):
        def epochs(seed):
            bus, link, (sub,) = rtk_feed(BEST_EFFORT, drop_rate=0.5, seed=seed)
            kept = []
            for t in range(1, 201):
                link.poll(float(t))
                kept += [m.epoch for m in take_corrections(bus, sub)]
            return kept

        assert epochs(11) == epochs(11)
        assert epochs(11) != epochs(12)
        kept = epochs(11)
        assert 0 < len(kept) < 200  # some dropped, some kept
        assert all(a < b for a, b in zip(kept, kept[1:]))

    def test_reliable_subscriptions_lose_nothing(self):
        bus, link, (sub,) = rtk_feed(drop_rate=1.0)
        for t in range(1, 11):
            link.poll(float(t))
            assert [m.epoch for m in take_corrections(bus, sub)] == [t]

    def test_two_rovers_on_one_base_lose_their_own_corrections(self):
        # a 40 s outage drawn per delivery: each rover's ladder falls and
        # climbs on its own
        bus, link, subs = rtk_feed(BEST_EFFORT, drop_rate=0.8, seed=3, rovers=2)
        rovers = [Rover(f"r{i}", seed=i, noiseless=True) for i in range(2)]
        kept = [[], []]
        ladders = [[], []]
        for i in range(1, 14 * 40 + 1):
            now = i / 14.0
            link.poll(now)
            for rover, sub, epochs, ladder in zip(rovers, subs, kept, ladders):
                msgs = take_corrections(bus, sub)
                epochs += [m.epoch for m in msgs]
                ladder.append(rover.step(BASE, msgs, now).quality)
        assert kept[0] and kept[1] and kept[0] != kept[1]
        assert len(kept[0]) < 40 and len(kept[1]) < 40
        assert ladders[0] != ladders[1]


class TestDisturbance:
    def test_envelope_shape(self):
        w = DisturbanceWindow(10.0, 12.0, (1.0, 0.0, 0.0))
        assert w.envelope(9.9) == 0.0
        assert w.envelope(10.0) == 1.0
        assert w.envelope(12.0) == 1.0
        assert w.envelope(13.5) == pytest.approx(0.5)
        assert w.envelope(15.1) == 0.0

    @pytest.mark.parametrize("start_s, end_s, field", [
        (math.nan, 1.0, "start_s"), (-math.inf, 1.0, "start_s"),
        (0.0, math.nan, "end_s"), (0.0, math.inf, "end_s"), (2.0, 1.0, "end_s"),
        ("0", 1.0, "start_s"), (None, 1.0, "start_s"), (True, 1.0, "start_s"),
        (0.0, "1", "end_s"), (0.0, None, "end_s"), (0.0, False, "end_s")])
    def test_window_bounds_must_be_finite_and_ordered(self, start_s, end_s, field):
        """A NaN start would make a window that is always on; a string or None
        bound is a ValueError naming it, not a bare comparison error, and a
        bool is not a number."""
        with pytest.raises(ValueError, match=field):
            DisturbanceWindow(start_s, end_s, (0.1, 0.0, 0.0))

    @pytest.mark.parametrize("offset", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.1, 0.0),
                                        (0.1, 0.0, 0.0, 0.0), ("0.1", 0.0, 0.0), None,
                                        (True, False, 0.0)],
                             ids=["nan", "inf", "two", "four", "str", "none", "bool"])
    def test_window_offset_must_be_three_finite_numbers(self, offset):
        """Refused at construction, not inside ``Rover.step``."""
        with pytest.raises(ValueError, match="offset_enu"):
            DisturbanceWindow(1.0, 2.0, offset)

    def test_window_offset_is_kept_as_floats(self):
        w = DisturbanceWindow(1.0, 2.0, np.array([1, 0, 0]))
        assert w.offset_enu == (1.0, 0.0, 0.0)
        assert all(type(c) is float for c in w.offset_enu)

    def test_pulse_offsets_reported_position(self):
        rover = Rover("r", seed=0, disturbances=[DisturbanceWindow(1.0, 2.0, (0.5, 0.0, 0.0))],
                      noiseless=True)
        inside = rover.step(BASE, (), 1.5)
        east, north, _ = geodetic_to_enu(inside.position, BASE)
        assert east == pytest.approx(0.5, abs=1e-9)
        assert north == pytest.approx(0.0, abs=1e-9)
        # past the decay tail the pulse is gone
        for i in range(22, 100):
            fix = rover.step(BASE, (), i / 14.0)
        assert fix.position == BASE


offsets = st.tuples(*[st.floats(-0.5, 0.5)] * 3)


@st.composite
def rover_runs(draw):
    """(stamps k/14 s, the number to batch first, the corrections taken at
    each, Rover keyword arguments): a drawn seed, a pinned or drawn bias, with
    or without noise, and 0-3 windows that tend to overlap, the first ending
    its decay on a fix stamp when drawn so."""
    count = draw(st.integers(1, 140))
    windows = []
    for i in range(draw(st.integers(0, 3))):
        if i == 0 and draw(st.booleans()):
            # k/14 - 3 and back is exact for k/14 in [3, 6): the decay ends on
            # fix k, whose envelope is 0
            k = draw(st.integers(42, 83))
            count = max(count, k)
            end = k / 14.0 - DISTURBANCE_DECAY_S
            assert end + DISTURBANCE_DECAY_S == k / 14.0
            start = end - draw(st.floats(0.0, 2.0))
        else:
            start = draw(st.floats(0.0, 4.0))
            end = start + draw(st.floats(0.0, 3.0))
        windows.append(DisturbanceWindow(start, end, draw(offsets)))
    stamps = np.arange(1, count + 1) / 14.0
    n = draw(st.integers(0, count))
    bus, link, (sub,) = rtk_feed(BEST_EFFORT, drop_rate=draw(st.sampled_from([0.0, 0.5])),
                                 seed=draw(st.integers(0, 99)))
    silent_after = draw(st.floats(0.0, 12.0))
    polled = []
    for s in stamps.tolist():
        link.poll(min(s, silent_after))
        polled.append(take_corrections(bus, sub))
    bias = draw(st.one_of(st.none(), st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))))
    return stamps, n, polled, dict(seed=draw(st.integers(0, 2**32 - 1)), disturbances=windows,
                                   bias_en=bias, noiseless=draw(st.booleans()))


class TestStepBatch:
    WINDOWS = (DisturbanceWindow(2.0, 3.0, (0.4, -0.2, 0.1)),
               DisturbanceWindow(2.5, 2.6, (0.0, 0.3, 0.0)),
               DisturbanceWindow(8.0, 9.0, (-0.3, 0.0, 0.2)))

    @staticmethod
    def truth_at(stamps):
        return np.array([[48.70 + 1e-6 * s, 6.15 - 2e-6 * s, 220.0 + 0.01 * s]
                         for s in stamps])

    @staticmethod
    def fields(fix):
        return (fix.stamp, fix.position.lat, fix.position.lon, fix.position.alt,
                fix.quality)

    def test_batch_then_steps_equals_scalar_steps(self):
        # the base falls silent after 3 s and the injector drops epoch 2: the
        # ladder climbs to fixed, holds it across the gap, is at float when
        # the batch ends at 8.6 s, and drops to single in the scalar steps;
        # the last window spans the boundary
        n, k = 120, 200
        stamps = np.arange(1, n + k + 1) / 14.0
        bus, link, (sub,) = rtk_feed(BEST_EFFORT, drop_rate=0.5, seed=10)
        polled = []
        for s in stamps.tolist():
            link.poll(min(s, 3.0))
            polled.append(take_corrections(bus, sub))
        assert [m.epoch for msgs in polled for m in msgs] == [1, 3]
        truth = self.truth_at(stamps.tolist())

        def rover():
            return Rover("r", seed=8, disturbances=self.WINDOWS)

        scalar = rover()
        expected = [self.fields(scalar.step(GeodeticCoord(*truth[i]), polled[i], s))
                    for i, s in enumerate(stamps.tolist())]

        batched = rover()
        measured, codes = batched.step_batch(truth[:n], stamps[:n], polled[:n])
        got = [(s, *p, QUALITIES[c])
               for s, p, c in zip(stamps[:n].tolist(), measured.tolist(), codes.tolist())]
        got += [self.fields(batched.step(GeodeticCoord(*truth[i]), polled[i], s))
                for i, s in zip(range(n, n + k), stamps[n:].tolist())]
        assert got == expected
        assert set(codes.tolist()) == {0, 1, 2}
        assert batched.quality is scalar.quality is FixQuality.SINGLE

    @given(rover_runs())
    @settings(max_examples=60, deadline=None)
    def test_any_batch_then_steps_equals_scalar_steps(self, run):
        """``step`` draws and combines its one fix's error as floats and
        ``step_batch`` as arrays: the same fixes, bit for bit, and the same
        RNG state after, for any seed, bias, noise and overlapping windows.
        Below the fixes, which round away an error's last bits, every error
        ``step`` converts equals the batch model's for that one fix."""
        stamps, n, polled, kwargs = run
        truth = self.truth_at(stamps.tolist())
        scalar = Rover("r", **kwargs)
        converted = []

        def spy(error, origin):
            converted.append(np.array(error).tobytes())
            return enu_to_geodetic(error, origin)

        with mock.patch("hmas.geo.enu_to_geodetic", spy):
            expected = [self.fields(scalar.step(GeodeticCoord(*truth[i]), polled[i], s))
                        for i, s in enumerate(stamps.tolist())]
        one_by_one = Rover("r", **kwargs)
        errors = [one_by_one._errors([s], np.array(one_by_one._ladder([s], [msgs])))[0]
                  for s, msgs in zip(stamps.tolist(), polled)]
        assert converted == [e.tobytes() for e in errors if np.any(e)]
        batched = Rover("r", **kwargs)
        measured, codes = batched.step_batch(truth[:n], stamps[:n], polled[:n])
        got = [(s, *p, QUALITIES[c])
               for s, p, c in zip(stamps[:n].tolist(), measured.tolist(), codes.tolist())]
        got += [self.fields(batched.step(GeodeticCoord(*truth[i]), polled[i], s))
                for i, s in zip(range(n, len(stamps)), stamps[n:].tolist())]
        assert got == expected
        assert batched._rng.bit_generator.state == scalar._rng.bit_generator.state
        assert batched.quality is scalar.quality

    def test_stamps_must_increase_past_the_last_fix(self):
        rover = Rover("r", seed=1)
        rover.step(BASE, (), 1 / 14.0)
        for stamps in (np.arange(1, 4) / 14.0, np.array([3.0, 2.0, 4.0])):
            with pytest.raises(ValueError, match="increasing and later"):
                rover.step_batch(self.truth_at(stamps), stamps, [()] * 3)
        stamps = np.arange(2, 5) / 14.0
        with pytest.raises(ValueError, match="3 stamps"):
            rover.step_batch(self.truth_at(stamps), stamps, [()] * 2)
        stamps = np.array([0.2, 0.75, 3.0])  # any increasing stamps, on no grid
        measured, codes = rover.step_batch(self.truth_at(stamps), stamps, [()] * 3)
        assert measured.shape == (3, 3) and codes.tolist() == [0, 0, 0]
        with pytest.raises(ValueError, match="later than the last fix's, 3.0"):
            rover.step(BASE, (), 3.0)

    def test_corrections_between_fixes_count_at_the_next_fix(self):
        rover = Rover("r", seed=1, noiseless=True)
        rover.receive_correction(FRESH[0])  # taken between fixes
        fix = rover.step(BASE, (), 1 / 14.0)
        assert fix.position == BASE and fix.quality is FixQuality.FLOAT

