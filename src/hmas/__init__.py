"""HMAS kit: simulatable multi-agent middleware with namespaced pub/sub,
a transform tree, RTK-anchored ENU geolocation, agent behaviors,
record/replay, and an RTK accuracy experiment harness."""

from .bus import (Bus, BusGraph, DeliveryReport, Message, QosProfile,
                  QualifiedName, Reliability, SeededDropInjector)
from .tf import Transform, TransformTree, compose, invert
from .geo import (CorrectionLink, CorrectionMsg, FixQuality, GeodeticCoord, Rover, RtkFix,
                  ecef_to_enu, ecef_to_geodetic, enu_to_ecef, enu_to_geodetic,
                  geodetic_to_ecef, geodetic_to_enu)
from .agents import AgentSpec, FollowCommand, SensorSpec, World
from .bag import BagRecord, Recorder, bag_info, read_bag, record, replay
from .bench import (DistanceSeries, ExperimentSpec, Report, emit_csv,
                    make_spec, run_experiment, side_distances, summarize)

__version__ = "0.1.0"
