"""Multi-stream serving layer: the prediction fleet."""

from repro.serving.engine import BatchedTickEngine
from repro.serving.fleet import (
    FleetConfig,
    FleetMetrics,
    PredictionFleet,
    StreamMetrics,
)
from repro.serving.persistence import load_fleet, save_fleet
from repro.serving.trainer import BatchedTrainEngine

__all__ = [
    "BatchedTickEngine",
    "BatchedTrainEngine",
    "FleetConfig",
    "FleetMetrics",
    "PredictionFleet",
    "StreamMetrics",
    "save_fleet",
    "load_fleet",
]
