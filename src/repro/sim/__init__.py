"""Hop-level replay simulator for PIM-array schedules."""

from .machine import PIMArray, ResidencyError
from .network import NetworkReport, simulate_schedule_network, simulate_window_traffic
from .messages import Message, MessageKind
from .replay import Checkpoint, ReplayCursor, replay_schedule
from .stats import SimReport
from .timing import TimingModel, TimingReport, estimate_execution_time

__all__ = [
    "PIMArray",
    "ResidencyError",
    "Checkpoint",
    "ReplayCursor",
    "Message",
    "MessageKind",
    "replay_schedule",
    "SimReport",
    "TimingModel",
    "TimingReport",
    "estimate_execution_time",
    "NetworkReport",
    "simulate_window_traffic",
    "simulate_schedule_network",
]
