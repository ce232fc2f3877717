"""SwitchFlow core: run context, jobs, gates, policies, preemption."""

from repro.core.config import ConfigError, SwitchFlowConfig
from repro.core.context import DEFAULT_TEMPORARY_WORKERS, RunContext, make_context
from repro.core.gate import DeviceGate
from repro.core.job import PRIORITY_HIGH, PRIORITY_LOW, JobHandle
from repro.core.options import RunOptions, active_options, using_options
from repro.core.policy import ComputeGrant, SchedulingPolicy
from repro.core.switchflow import SwitchFlowPolicy

__all__ = [
    "ComputeGrant",
    "ConfigError",
    "SwitchFlowConfig",
    "DEFAULT_TEMPORARY_WORKERS",
    "DeviceGate",
    "JobHandle",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "RunContext",
    "RunOptions",
    "SchedulingPolicy",
    "SwitchFlowPolicy",
    "active_options",
    "make_context",
    "using_options",
]
