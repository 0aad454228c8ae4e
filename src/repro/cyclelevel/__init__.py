"""Cycle-level validation referee (UNISIM stand-in)."""

from .caches import CycleLevelMemory
from .pipeline import PIPELINE_DEPTH, PipelineModel
from .simulator import build_cycle_level_machine

__all__ = [
    "CycleLevelMemory",
    "PIPELINE_DEPTH",
    "PipelineModel",
    "build_cycle_level_machine",
]
