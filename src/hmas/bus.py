"""Namespaced in-process publish/subscribe bus with masterless discovery.

Every node lives in the namespace of the agent that owns it; topics are
advertised with relative names and resolve to ``/<namespace>/<topic>``.
Delivery is pull-based (``take``) with keep-last history queues, so a slow
consumer can never block a publisher. Each publisher's stamps must be finite,
non-negative and non-decreasing.

Publish hooks (``add_publish_hook``) are called as ``hook(topic, stamp,
payload)``, with the topic's ``QualifiedName``, for every accepted publish, in
publish order and before fault injection and delivery. A ``Message`` is built
only for subscription queues: a publish on a topic with no subscription
allocates none.
"""
from __future__ import annotations

import functools
import math
import random
import re
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Protocol


class BusError(Exception):
    pass


class InvalidNameError(BusError):
    pass


class DuplicateNodeError(BusError):
    pass


class ClosedHandleError(BusError):
    pass


class StampOrderError(BusError):
    """Stamps from one publisher must be finite, non-negative and non-decreasing."""


_SEGMENT_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _check_segments(text: str, what: str) -> None:
    if not text or text.startswith("/") or text.endswith("/"):
        raise InvalidNameError(f"invalid {what} {text!r}")
    for seg in text.split("/"):
        if not _SEGMENT_RE.match(seg):
            raise InvalidNameError(f"invalid {what} segment {seg!r} in {text!r}")


@dataclass(frozen=True)
class QualifiedName:
    """Namespace-qualified name; full form is ``/<namespace>/<local>``."""

    namespace: str
    local: str

    def __post_init__(self) -> None:
        _check_segments(self.namespace, "namespace")
        if "/" in self.namespace:
            raise InvalidNameError(f"namespace must be a single segment: {self.namespace!r}")
        _check_segments(self.local, "local name")

    @functools.cached_property
    def full(self) -> str:
        return f"/{self.namespace}/{self.local}"

    @classmethod
    def parse(cls, full: str) -> "QualifiedName":
        if not full.startswith("/"):
            raise InvalidNameError(f"full name must start with '/': {full!r}")
        namespace, _, local = full[1:].partition("/")
        if not local:
            raise InvalidNameError(f"full name needs a namespace and a local part: {full!r}")
        return cls(namespace, local)

    def __str__(self) -> str:
        return self.full


class Reliability(Enum):
    BEST_EFFORT = "best_effort"
    RELIABLE = "reliable"


@dataclass(frozen=True)
class QosProfile:
    reliability: Reliability = Reliability.BEST_EFFORT
    history_depth: int = 1

    def __post_init__(self) -> None:
        depth = self.history_depth
        if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
            raise ValueError(f"history_depth must be an integer of at least 1, got {depth!r}")


DEFAULT_QOS = QosProfile()


@dataclass(frozen=True)
class Message:
    topic: QualifiedName
    stamp: float
    payload: bytes


@dataclass(frozen=True)
class DeliveryReport:
    matched: int
    enqueued: int


@functools.cache
def _delivery_report(matched: int, enqueued: int) -> DeliveryReport:
    """One shared (immutable) report per outcome, so a publish allocates none."""
    return DeliveryReport(matched, enqueued)


_NO_DELIVERY = _delivery_report(0, 0)

PublishHook = Callable[[QualifiedName, float, bytes], None]


class FaultInjector(Protocol):
    """Per-delivery drop decision, standing in for a lossy wireless link."""

    def should_drop(self, topic: QualifiedName) -> bool: ...


class SeededDropInjector:
    """Drops a deterministic, seed-replayable fraction of deliveries."""

    def __init__(self, drop_rate: float, seed: int) -> None:
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
        self.drop_rate = drop_rate
        self._rng = random.Random(seed)

    def should_drop(self, topic: QualifiedName) -> bool:
        return self._rng.random() < self.drop_rate


@dataclass(frozen=True)
class BusGraph:
    """Snapshot of the discovery state: who exists and who talks to whom."""

    nodes: frozenset[str]
    publishers: dict[str, frozenset[str]]
    subscribers: dict[str, frozenset[str]]


class NodeHandle:
    def __init__(self, bus: "Bus", name: QualifiedName) -> None:
        self._bus = bus
        self.name = name
        self._closed = False
        self._endpoints: list[_Endpoint] = []

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._bus._close_node(self)

    def __repr__(self) -> str:
        return f"NodeHandle({self.name.full})"


class _Endpoint:
    """What publishers and subscriptions share: their node, topic, QoS, and
    the bus registry (full topic -> endpoints) they join and leave."""

    def __init__(self, bus: "Bus", node: NodeHandle, topic: QualifiedName, qos: QosProfile,
                 registry: dict[str, list]) -> None:
        self._bus = bus
        self.node = node
        self.topic = topic
        self.qos = qos
        self._registry = registry
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._bus._close_endpoint(self)


class PublisherHandle(_Endpoint):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        # the lowest stamp the next publish may carry: stamps are non-negative
        self._last_stamp = 0.0

    def publish(self, stamp: float, payload: bytes) -> DeliveryReport:
        return self._bus.publish(self, stamp, payload)


class SubscriptionHandle(_Endpoint):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._queue: deque[tuple[int, Message]] = deque(maxlen=self.qos.history_depth)

    def take(self) -> Message | None:
        return self._bus.take(self)


def _reject(pub: PublisherHandle, stamp: float) -> None:
    """Raise the error for a publish that the fast check in ``Bus.publish`` refused."""
    if pub._closed:
        raise ClosedHandleError(f"publisher on {pub.topic.full} is closed")
    raise stamp_error(stamp, pub._last_stamp, pub.topic.full)


def stamp_error(stamp: float, last: float, topic: str) -> StampOrderError:
    """The error for publishing ``stamp`` on ``topic`` after ``last``, a stamp
    that the bus refuses."""
    if not 0.0 <= stamp < math.inf:
        return StampOrderError(f"stamp {stamp} is not finite and non-negative")
    return StampOrderError(f"stamp {stamp} precedes {last} on {topic}")


class Bus:
    """In-process bus shared by every participant; the only common substrate.

    All handle operations are safe to call from multiple threads. Ordering is
    guaranteed per publisher-subscriber pair only. ``set_fault_injector``
    installs the one fault injector, which may drop best-effort deliveries.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._nodes: dict[str, NodeHandle] = {}
        self._publishers: dict[str, list[PublisherHandle]] = {}
        self._subscriptions: dict[str, list[SubscriptionHandle]] = {}
        self._fault_injector: FaultInjector | None = None
        self._seq = 0
        self._publish_hooks: tuple[PublishHook, ...] = ()

    def set_fault_injector(self, injector: FaultInjector | None) -> None:
        with self._lock:
            self._fault_injector = injector

    # -- registration -------------------------------------------------

    def create_node(self, namespace: str, local_name: str) -> NodeHandle:
        name = QualifiedName(namespace, local_name)
        with self._lock:
            if name.full in self._nodes:
                raise DuplicateNodeError(f"node {name.full} already exists")
            node = NodeHandle(self, name)
            self._nodes[name.full] = node
        return node

    def advertise(self, node: NodeHandle, topic: str, qos: QosProfile = DEFAULT_QOS) -> PublisherHandle:
        if topic.startswith("/"):
            raise InvalidNameError(
                f"publishers use relative topic names, got absolute {topic!r}")
        resolved = QualifiedName(node.name.namespace, topic)
        return self._attach(PublisherHandle, node, resolved, qos, self._publishers)

    def subscribe(self, node: NodeHandle, topic: str, qos: QosProfile = DEFAULT_QOS) -> SubscriptionHandle:
        if topic.startswith("/"):
            resolved = QualifiedName.parse(topic)
        else:
            resolved = QualifiedName(node.name.namespace, topic)
        return self._attach(SubscriptionHandle, node, resolved, qos, self._subscriptions)

    def _attach(self, handle_cls, node: NodeHandle, topic: QualifiedName,
                qos: QosProfile, registry: dict[str, list]) -> _Endpoint:
        with self._lock:
            self._check_node_live(node)
            endpoint = handle_cls(self, node, topic, qos, registry)
            registry.setdefault(topic.full, []).append(endpoint)
            node._endpoints.append(endpoint)
        return endpoint

    def add_publish_hook(self, hook: PublishHook) -> None:
        """Call ``hook(topic, stamp, payload)`` for every future accepted
        publish, in publish order, before fault injection and delivery; used
        by recorders. ``topic`` is the ``QualifiedName``, ``payload`` bytes."""
        with self._lock:
            self._publish_hooks += (hook,)

    def remove_publish_hook(self, hook: PublishHook) -> None:
        with self._lock:
            self._publish_hooks = tuple(h for h in self._publish_hooks if h != hook)

    # -- data path ----------------------------------------------------

    def publish(self, pub: PublisherHandle, stamp: float, payload: bytes) -> DeliveryReport:
        with self._lock:
            # _last_stamp starts at 0, so one chained comparison rejects a NaN,
            # infinite, negative or decreasing stamp
            if pub._closed or not pub._last_stamp <= stamp < math.inf:
                _reject(pub, stamp)
            pub._last_stamp = stamp
            topic = pub.topic
            payload = bytes(payload)
            for hook in self._publish_hooks:
                hook(topic, stamp, payload)
            subs = self._subscriptions.get(topic.full)
            if not subs:
                return _NO_DELIVERY
            msg = Message(topic, stamp, payload)
            enqueued = 0
            best_effort_pub = pub.qos.reliability is Reliability.BEST_EFFORT
            for sub in subs:
                # Drops only affect deliveries where both sides accept loss;
                # a reliable subscription is never starved.
                droppable = best_effort_pub and sub.qos.reliability is Reliability.BEST_EFFORT
                if droppable and self._fault_injector is not None \
                        and self._fault_injector.should_drop(topic):
                    continue
                self._seq += 1
                sub._queue.append((self._seq, msg))
                enqueued += 1
            return _delivery_report(len(subs), enqueued)

    def take(self, sub: SubscriptionHandle) -> Message | None:
        with self._lock:
            if sub._closed:
                raise ClosedHandleError(f"subscription on {sub.topic.full} is closed")
            if not sub._queue:
                return None
            return sub._queue.popleft()[1]

    def take_with_seq(self, sub: SubscriptionHandle) -> tuple[int, Message] | None:
        """Like take() but exposes the bus-wide enqueue sequence number."""
        with self._lock:
            if sub._closed:
                raise ClosedHandleError(f"subscription on {sub.topic.full} is closed")
            if not sub._queue:
                return None
            return sub._queue.popleft()

    # -- discovery ----------------------------------------------------

    def discover(self) -> BusGraph:
        with self._lock:
            publishers = {
                topic: frozenset(p.node.name.full for p in pubs)
                for topic, pubs in self._publishers.items() if pubs
            }
            subscribers = {
                topic: frozenset(s.node.name.full for s in subs)
                for topic, subs in self._subscriptions.items() if subs
            }
            return BusGraph(frozenset(self._nodes), publishers, subscribers)

    # -- teardown -----------------------------------------------------

    def _check_node_live(self, node: NodeHandle) -> None:
        if node._closed or self._nodes.get(node.name.full) is not node:
            raise ClosedHandleError(f"node {node.name.full} is not registered")

    def _close_node(self, node: NodeHandle) -> None:
        with self._lock:
            if node._closed:
                return
            for endpoint in list(node._endpoints):
                self._close_endpoint(endpoint)
            self._nodes.pop(node.name.full, None)
            node._closed = True

    def _close_endpoint(self, endpoint: _Endpoint) -> None:
        with self._lock:
            if endpoint._closed:
                return
            peers = endpoint._registry[endpoint.topic.full]
            peers.remove(endpoint)
            if not peers:
                del endpoint._registry[endpoint.topic.full]
            endpoint.node._endpoints.remove(endpoint)
            endpoint._closed = True
