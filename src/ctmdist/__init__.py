"""ctmdist: distributed cell-transmission traffic simulation.

Partition a road network into subnetworks, run one engine per worker, and
exchange boundary vehicle flows each step so the distributed result matches
a sequential run bit for bit.
"""

__version__ = "0.1.0"

from .engine import Engine
from .errors import CtmError, InternalAssertion, ProtocolError, ScenarioError
from .gridgen import generate_grid, grid_counts
from .partition import (
    build_metagraph,
    build_subnetworks,
    partition_nodes,
)
from .runner import run_distributed, run_sequential
from .scenario import Scenario, load_scenario, parse_scenario, serialize_scenario

__all__ = [
    "CtmError",
    "Engine",
    "InternalAssertion",
    "ProtocolError",
    "Scenario",
    "ScenarioError",
    "build_metagraph",
    "build_subnetworks",
    "generate_grid",
    "grid_counts",
    "load_scenario",
    "parse_scenario",
    "partition_nodes",
    "run_distributed",
    "run_sequential",
    "serialize_scenario",
]
