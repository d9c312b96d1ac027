"""Bus semantics: naming, QoS history, isolation, discovery, fault injection."""
import math
import random
import threading
from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from hmas.bag import read_bag, record
from hmas.bus import (Bus, ClosedHandleError, DuplicateNodeError,
                      InvalidNameError, Message, QosProfile, QualifiedName, Reliability,
                      SeededDropInjector, StampOrderError)

RELIABLE = QosProfile(reliability=Reliability.RELIABLE, history_depth=100)

name_strategy = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)


class TestQualifiedName:
    def test_full_form_round_trips(self):
        name = QualifiedName("spot", "gps/fix")
        assert name.full == "/spot/gps/fix"
        assert QualifiedName.parse(name.full) == name

    @pytest.mark.parametrize("namespace,local", [
        ("", "x"), ("Spot", "x"), ("9spot", "x"), ("spot", ""),
        ("spot", "/abs"), ("spot", "a//b"), ("spot/extra", "x"),
        ("spot", "gps/Fix"), ("spot-1", "x"),
    ])
    def test_invalid_names_rejected(self, namespace, local):
        with pytest.raises(InvalidNameError):
            QualifiedName(namespace, local)

    def test_parse_requires_namespace_and_local(self):
        with pytest.raises(InvalidNameError):
            QualifiedName.parse("spot/x")
        with pytest.raises(InvalidNameError):
            QualifiedName.parse("/spot")

    @given(namespace=name_strategy, local=name_strategy)
    def test_parse_inverts_full(self, namespace, local):
        name = QualifiedName(namespace, local)
        assert QualifiedName.parse(name.full) == name


class TestNodes:
    def test_duplicate_node_rejected(self):
        bus = Bus()
        bus.create_node("spot", "driver")
        with pytest.raises(DuplicateNodeError):
            bus.create_node("spot", "driver")

    def test_same_local_name_in_other_namespace_is_distinct(self):
        bus = Bus()
        bus.create_node("spot", "driver")
        bus.create_node("anafi", "driver")
        assert bus.discover().nodes == {"/spot/driver", "/anafi/driver"}


class TestTopics:
    def test_advertise_resolves_relative_name(self):
        bus = Bus()
        node = bus.create_node("spot", "driver")
        pub = bus.advertise(node, "gps/fix")
        assert pub.topic.full == "/spot/gps/fix"

    def test_advertise_rejects_absolute_names(self):
        bus = Bus()
        node = bus.create_node("spot", "driver")
        with pytest.raises(InvalidNameError):
            bus.advertise(node, "/absolute/name")

    def test_same_relative_topic_isolated_per_namespace(self):
        bus = Bus()
        spot = bus.create_node("spot", "driver")
        anafi = bus.create_node("anafi", "driver")
        spot_pub = bus.advertise(spot, "gps/fix")
        anafi_sub = bus.subscribe(anafi, "gps/fix")
        spot_pub.publish(0.0, b"spot-data")
        assert anafi_sub.take() is None

    def test_cross_namespace_absolute_subscription(self):
        bus = Bus()
        spot = bus.create_node("spot", "driver")
        display = bus.create_node("hmas", "display")
        pub = bus.advertise(spot, "gps/fix")
        sub = bus.subscribe(display, "/spot/gps/fix")
        pub.publish(1.0, b"fix")
        msg = sub.take()
        assert msg is not None
        assert msg.topic.full == "/spot/gps/fix"
        assert msg.payload == b"fix"


class TestHistory:
    def make_pair(self, depth):
        bus = Bus()
        node = bus.create_node("spot", "driver")
        pub = bus.advertise(node, "t")
        sub = bus.subscribe(node, "t", QosProfile(history_depth=depth))
        return pub, sub

    def test_keep_last_one_returns_newest(self):
        pub, sub = self.make_pair(1)
        pub.publish(0.0, b"A")
        pub.publish(1.0, b"B")
        assert sub.take().payload == b"B"
        assert sub.take() is None

    def test_keep_last_three(self):
        pub, sub = self.make_pair(3)
        for i, payload in enumerate((b"A", b"B", b"C", b"D")):
            pub.publish(float(i), payload)
        assert [sub.take().payload for _ in range(3)] == [b"B", b"C", b"D"]
        assert sub.take() is None

    def test_burst_of_100_keeps_final(self):
        pub, sub = self.make_pair(1)
        for i in range(100):
            pub.publish(float(i), b"%d" % i)
        assert sub.take().payload == b"99"
        assert sub.take() is None

    @given(depth=st.integers(1, 8), n=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_keep_last_n_matches_model(self, depth, n):
        pub, sub = self.make_pair(depth)
        payloads = [b"%d" % i for i in range(n)]
        for i, p in enumerate(payloads):
            pub.publish(float(i), p)
        expected = payloads[-depth:] if n else []
        got = []
        while True:
            msg = sub.take()
            if msg is None:
                break
            got.append(msg.payload)
        assert got == expected

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            QosProfile(history_depth=0)

    @pytest.mark.parametrize("depth", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_depth_must_be_an_integer_refused_at_construction(self, depth):
        with pytest.raises(ValueError, match="history_depth"):
            QosProfile(history_depth=depth)


class TestPublish:
    def test_no_subscribers(self):
        bus = Bus()
        node = bus.create_node("spot", "driver")
        pub = bus.advertise(node, "t")
        report = pub.publish(0.0, b"x")
        assert (report.matched, report.enqueued) == (0, 0)

    def test_reliable_delivers_to_all(self):
        bus = Bus()
        node = bus.create_node("spot", "driver")
        pub = bus.advertise(node, "t", RELIABLE)
        bus.subscribe(node, "t", RELIABLE)
        bus.subscribe(node, "t", RELIABLE)
        report = pub.publish(0.0, b"x")
        assert (report.matched, report.enqueued) == (2, 2)

    def test_seeded_drop_sequence_matches_oracle_replay(self):
        bus = Bus()
        bus.set_fault_injector(SeededDropInjector(0.5, seed=42))
        node = bus.create_node("spot", "driver")
        pub = bus.advertise(node, "t")
        bus.subscribe(node, "t")
        enqueued = sum(pub.publish(float(i), b"x").enqueued for i in range(1000))
        oracle = random.Random(42)
        expected = sum(1 for _ in range(1000) if not (oracle.random() < 0.5))
        assert enqueued == expected

    def test_reliable_subscriber_never_dropped(self):
        bus = Bus()
        bus.set_fault_injector(SeededDropInjector(1.0, seed=0))
        node = bus.create_node("spot", "driver")
        pub = bus.advertise(node, "t")  # best effort publisher
        lossy = bus.subscribe(node, "t")
        recorder_like = bus.subscribe(node, "t", RELIABLE)
        report = pub.publish(0.0, b"x")
        assert report.matched == 2
        assert report.enqueued == 1
        assert lossy.take() is None
        assert recorder_like.take().payload == b"x"

    def test_stamps_must_not_regress_per_publisher(self):
        bus = Bus()
        node = bus.create_node("spot", "driver")
        pub = bus.advertise(node, "t")
        pub.publish(5.0, b"x")
        pub.publish(5.0, b"y")  # equal is fine
        for bad in (4.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(StampOrderError):
                pub.publish(bad, b"z")
        with pytest.raises(StampOrderError):
            pub.publish(4.0, b"z")  # a rejected stamp leaves the last stamp at 5.0

    def test_publish_to_never_taking_subscriber_completes(self):
        bus = Bus()
        node = bus.create_node("spot", "driver")
        pub = bus.advertise(node, "t")
        bus.subscribe(node, "t", QosProfile(history_depth=1))
        for i in range(10_000):
            pub.publish(float(i), b"x")  # bounded queue: never blocks


def _publish_error(closed: bool, stamp: float, last: float, topic: str):
    """The error class and message the publish checks give, in their order."""
    if closed:
        return ClosedHandleError, f"publisher on {topic} is closed"
    if not 0.0 <= stamp < math.inf:
        return StampOrderError, f"stamp {stamp} is not finite and non-negative"
    if stamp < last:
        return StampOrderError, f"stamp {stamp} precedes {last} on {topic}"
    return None


_BAD_STAMPS = ("nan", "inf", "-inf", "negative", "below")
_publish_op = st.tuples(
    st.just("publish"), st.integers(0, 3),
    st.one_of(st.floats(0.0, 3.0), st.sampled_from(_BAD_STAMPS)),
    st.one_of(st.binary(max_size=3), st.binary(max_size=3).map(bytearray)))


@given(ops=st.lists(st.one_of(_publish_op,
                              st.tuples(st.just("take"), st.integers(0, 3)),
                              st.tuples(st.just("close"), st.integers(0, 3))),
                    max_size=60),
       drop_seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_publish_checks_hooks_and_delivery_match_a_model(tmp_path_factory, ops, drop_seed):
    """Random publishes on topics without and with reliable and best-effort
    subscriptions, with a recorder and a plain hook attached. A rejected
    publish raises the first failing check's error, reaches no hook and no
    queue, and keeps the publisher's last stamp. Accepted publishes reach the
    hook once each in publish order, the bag holds them sorted by stamp, and
    take() returns what a model of the delivery rules holds."""
    bus = Bus()
    bus.set_fault_injector(SeededDropInjector(0.5, drop_seed))
    oracle_rng = random.Random(drop_seed)
    node = bus.create_node("spot", "driver")
    best, reliable = QosProfile(history_depth=2), QosProfile(Reliability.RELIABLE, 3)
    pubs = [bus.advertise(node, "none"), bus.advertise(node, "mixed"),
            bus.advertise(node, "lossy"), bus.advertise(node, "lossy", reliable)]
    subs = [bus.subscribe(node, "mixed", reliable), bus.subscribe(node, "mixed", best),
            bus.subscribe(node, "lossy", best), bus.subscribe(node, "/spot/lossy", reliable)]
    queues = {id(sub): deque(maxlen=sub.qos.history_depth) for sub in subs}
    seen = []
    bus.add_publish_hook(lambda topic, stamp, payload: seen.append((topic, stamp, payload)))
    path = tmp_path_factory.mktemp("bag") / "run.bag"
    recorder = record(bus, ["/spot/*"], path)
    accepted = []
    last = [-1.0] * len(pubs)  # last accepted stamp per publisher (-1: none yet)
    closed = [False] * len(pubs)
    for op in ops:
        if op[0] == "take":
            sub = subs[op[1]]
            model = queues[id(sub)]
            assert sub.take() == (model.popleft() if model else None)
            continue
        i = op[1]
        pub = pubs[i]
        if op[0] == "close":
            pub.close()
            closed[i] = True
            continue
        _, _, choice, payload = op
        base = max(last[i], 0.0)
        if isinstance(choice, str):
            stamp = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                     "negative": -0.5 - base, "below": base - 0.25}[choice]
        else:
            stamp = base + choice
        error = _publish_error(closed[i], stamp, last[i], pub.topic.full)
        before = pub._last_stamp
        lengths = [len(sub._queue) for sub in subs]
        if error is not None:
            with pytest.raises(error[0]) as info:
                pub.publish(stamp, payload)
            assert str(info.value) == error[1]
            assert pub._last_stamp == before
            assert [len(sub._queue) for sub in subs] == lengths
            assert len(seen) == len(accepted)
            continue
        report = pub.publish(stamp, payload)
        last[i] = stamp
        accepted.append((pub.topic, stamp, bytes(payload)))
        matched = [sub for sub in subs if sub.topic == pub.topic]
        enqueued = 0
        for sub in matched:
            droppable = (pub.qos.reliability is Reliability.BEST_EFFORT
                         and sub.qos.reliability is Reliability.BEST_EFFORT)
            if droppable and oracle_rng.random() < 0.5:
                continue
            queues[id(sub)].append(Message(pub.topic, stamp, bytes(payload)))
            enqueued += 1
        assert (report.matched, report.enqueued) == (len(matched), enqueued)
    assert seen == accepted
    assert all(type(payload) is bytes for _, _, payload in seen)
    recorder.stop()
    in_bag = sorted(accepted, key=lambda m: m[1])  # stable: ties keep publish order
    assert [(r.topic, r.stamp, r.payload) for r in read_bag(path)] == [(t.full, s, p) for t, s, p in in_bag]


class TestDiscovery:
    def test_empty_bus(self):
        graph = Bus().discover()
        assert graph.nodes == frozenset()
        assert graph.publishers == {}
        assert graph.subscribers == {}

    def test_two_agents_disjoint(self):
        bus = Bus()
        for agent in ("spot", "anafi"):
            node = bus.create_node(agent, "driver")
            bus.advertise(node, "gps/fix")
            bus.subscribe(node, "cmd")
        graph = bus.discover()
        assert graph.nodes == {"/spot/driver", "/anafi/driver"}
        assert graph.publishers == {"/spot/gps/fix": {"/spot/driver"},
                                    "/anafi/gps/fix": {"/anafi/driver"}}
        assert graph.subscribers == {"/spot/cmd": {"/spot/driver"},
                                     "/anafi/cmd": {"/anafi/driver"}}

    def test_closed_node_disappears(self):
        bus = Bus()
        node = bus.create_node("spot", "driver")
        pub = bus.advertise(node, "t")
        sub = bus.subscribe(node, "t")
        node.close()
        graph = bus.discover()
        assert graph.nodes == frozenset()
        assert graph.publishers == {}
        assert graph.subscribers == {}
        with pytest.raises(ClosedHandleError):
            pub.publish(0.0, b"x")
        with pytest.raises(ClosedHandleError):
            sub.take()

    def test_take_from_empty_queue(self):
        bus = Bus()
        node = bus.create_node("spot", "driver")
        sub = bus.subscribe(node, "t")
        assert sub.take() is None

    def test_volatile_durability_gives_late_subscribers_nothing(self):
        bus = Bus()
        node = bus.create_node("spot", "driver")
        pub = bus.advertise(node, "t", RELIABLE)
        pub.publish(0.0, b"before")
        late = bus.subscribe(node, "t", RELIABLE)
        assert late.take() is None
        pub.publish(1.0, b"after")
        assert late.take().payload == b"after"


@given(ns_a=name_strategy, ns_b=name_strategy, topic=name_strategy)
@settings(max_examples=80, deadline=None)
def test_namespace_isolation_property(ns_a, ns_b, topic):
    if ns_a == ns_b:
        return
    bus = Bus()
    a = bus.create_node(ns_a, "driver")
    b = bus.create_node(ns_b, "driver")
    pub_b = bus.advertise(b, topic)
    sub_a = bus.subscribe(a, topic)
    pub_b.publish(0.0, b"leak?")
    assert sub_a.take() is None


def test_concurrent_publish_and_take():
    bus = Bus()
    node = bus.create_node("spot", "driver")
    pub = bus.advertise(node, "t", RELIABLE)
    sub = bus.subscribe(node, "t", QosProfile(reliability=Reliability.RELIABLE,
                                              history_depth=100_000))
    per_thread = 2_000
    threads = [threading.Thread(
        target=lambda: [pub.publish(1.0, b"x") for _ in range(per_thread)])
        for _ in range(4)]
    taken = []

    def consume():
        while len(taken) < 4 * per_thread:
            msg = sub.take()
            if msg is not None:
                taken.append(msg)

    consumer = threading.Thread(target=consume)
    consumer.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    consumer.join(timeout=30)
    assert len(taken) == 4 * per_thread


class BusLifecycleMachine(RuleBasedStateMachine):
    """Nodes and endpoints created and closed in any order, on three
    namespaces, against a plain-dict model of what ``discover`` must show.

    Handles, closed ones included, are kept in lists and picked by index, so
    every rule is valid in every state and hypothesis filters out no steps.
    """

    def __init__(self) -> None:
        super().__init__()
        self.bus = Bus()
        self.live_nodes: dict[str, object] = {}  # full name -> live node handle
        self.nodes: list[object] = []  # every node ever created
        self.handles: dict[str, list[object]] = {"pub": [], "sub": []}  # ever attached
        self.open: dict[int, tuple[str, str, str]] = {}  # id -> (kind, topic, node)
        self.stamp = 0.0

    @rule(namespace=st.sampled_from(["spot", "anafi", "hmas"]),
          local=st.sampled_from(["driver", "gps"]))
    def create_node(self, namespace, local):
        full = f"/{namespace}/{local}"
        if full in self.live_nodes:
            with pytest.raises(DuplicateNodeError):
                self.bus.create_node(namespace, local)
        else:
            self.live_nodes[full] = self.bus.create_node(namespace, local)
            self.nodes.append(self.live_nodes[full])

    def _attach(self, kind, attach, i, topic):
        if not self.nodes:
            return
        node = self.nodes[i % len(self.nodes)]
        if self.live_nodes.get(node.name.full) is not node:
            with pytest.raises(ClosedHandleError):
                attach(node, topic)
            return
        endpoint = attach(node, topic)
        full = topic if topic.startswith("/") else f"/{node.name.namespace}/{topic}"
        self.handles[kind].append(endpoint)
        self.open[id(endpoint)] = (kind, full, node.name.full)

    @rule(i=st.integers(0, 50), topic=st.sampled_from(["fix", "cmd"]))
    def advertise(self, i, topic):
        self._attach("pub", self.bus.advertise, i, topic)

    @rule(i=st.integers(0, 50), topic=st.sampled_from(["fix", "cmd", "/spot/fix", "/anafi/cmd"]))
    def subscribe(self, i, topic):
        self._attach("sub", self.bus.subscribe, i, topic)

    @rule(i=st.integers(0, 50))
    def close_node(self, i):
        if not self.nodes:
            return
        node = self.nodes[i % len(self.nodes)]
        node.close()  # a second close is a no-op
        if self.live_nodes.get(node.name.full) is node:
            del self.live_nodes[node.name.full]
            for handle in self.handles["pub"] + self.handles["sub"]:
                if handle.node is node:
                    self.open.pop(id(handle), None)

    @rule(kind=st.sampled_from(["pub", "sub"]), i=st.integers(0, 50))
    def close_endpoint(self, kind, i):
        if self.handles[kind]:
            endpoint = self.handles[kind][i % len(self.handles[kind])]
            endpoint.close()
            self.open.pop(id(endpoint), None)

    @rule(kind=st.sampled_from(["pub", "sub"]), i=st.integers(0, 50))
    def publish_or_take(self, kind, i):
        if not self.handles[kind]:
            return
        endpoint = self.handles[kind][i % len(self.handles[kind])]
        self.stamp += 1.0
        use = partial(endpoint.publish, self.stamp, b"x") if kind == "pub" else endpoint.take
        if id(endpoint) in self.open:
            use()
        else:
            with pytest.raises(ClosedHandleError):
                use()

    @invariant()
    def discovery_matches_model(self):
        model: dict[str, dict[str, set[str]]] = {"pub": {}, "sub": {}}
        for kind, topic, node in self.open.values():
            model[kind].setdefault(topic, set()).add(node)
        graph = self.bus.discover()
        assert graph.nodes == set(self.live_nodes)
        assert graph.publishers == model["pub"]
        assert graph.subscribers == model["sub"]

    @invariant()
    def closed_flags_match_model(self):
        for handle in self.handles["pub"] + self.handles["sub"]:
            assert handle.closed == (id(handle) not in self.open)
            if handle.node.closed:
                assert handle.closed


BusLifecycleMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=40,
                                                 deadline=None)
TestBusLifecycle = BusLifecycleMachine.TestCase
