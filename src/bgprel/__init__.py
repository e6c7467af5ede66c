"""Inference of AS business relationships from observed BGP paths."""

__version__ = "0.1.0"

from .dataset import (
    LabelTable,
    RelLabel,
    balance_and_split,
    vote_intersection,
)
from .gcn import TrainConfig, TrainingDivergedError, train
from .ingest import (
    AllocationTable,
    AsPath,
    PathRejected,
    PathStore,
    ingest_file,
    sanitize,
)
from .pipeline import DataFiles
from .synth import SynthConfig, generate, is_valley_free, simulate_paths
from .topology import AsGraph, assemble_features, build_graph, infer_clique

__all__ = [
    "__version__",
    "AllocationTable",
    "AsGraph",
    "AsPath",
    "DataFiles",
    "LabelTable",
    "PathRejected",
    "PathStore",
    "RelLabel",
    "SynthConfig",
    "TrainConfig",
    "TrainingDivergedError",
    "assemble_features",
    "balance_and_split",
    "build_graph",
    "generate",
    "infer_clique",
    "ingest_file",
    "is_valley_free",
    "sanitize",
    "simulate_paths",
    "train",
    "vote_intersection",
]
