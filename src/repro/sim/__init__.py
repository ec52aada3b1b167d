"""Discrete-event simulation kernel for the Libra reproduction.

All timing-sensitive components (SSD model, LSM engine background work,
the Libra scheduler) run as processes on this kernel in simulated time,
sidestepping Python interpreter overhead entirely.
"""

from .core import (
    OK_RESULT,
    AllOf,
    AnyOf,
    DeadlineQueue,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "DeadlineQueue",
    "Event",
    "Interrupt",
    "Process",
    "OK_RESULT",
    "SimulationError",
    "Simulator",
    "Timeout",
]
