"""Adaptive diffusion on the infinite d-regular tree: simulation, source
inference, and exact verification of detection probabilities."""

from adl.tree import parse_label, format_label
from adl.protocol import (
    Protocol,
    uniform_protocol,
    perfect_protocol,
    local_spreading_protocol,
    load_protocol_table,
    hop_distribution,
)
from adl.diffusion import Trajectory, Snapshot, simulate, sample_snapshot

__all__ = [
    "parse_label",
    "format_label",
    "Protocol",
    "uniform_protocol",
    "perfect_protocol",
    "local_spreading_protocol",
    "load_protocol_table",
    "hop_distribution",
    "Trajectory",
    "Snapshot",
    "simulate",
    "sample_snapshot",
]
