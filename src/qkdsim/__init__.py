"""Discrete-event simulator of trusted-relay QKD networks.

Key generation is modelled as a token-bucket charging process per link,
traffic is conditioned by class-based admission control against the key
stores, and packets are routed either by a QoS-aware geographic protocol
or by a proactive distance-vector baseline.
"""

from .config import ConfigError, RunConfig
from .engine import Simulation, SimulationError, run_simulation
from . import dv  # noqa: F401  (registers the dv protocol)
from .geometry import Position, euclidean_distance
from .qos import TrafficClass
from .stats import RunStats
from .topology import Topology, TopologyError, TopologySpec, gabrielize, generate_topology

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Position",
    "RunConfig",
    "RunStats",
    "Simulation",
    "SimulationError",
    "Topology",
    "TopologyError",
    "TopologySpec",
    "TrafficClass",
    "euclidean_distance",
    "gabrielize",
    "generate_topology",
    "run_simulation",
]
