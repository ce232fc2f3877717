"""Kernel launch descriptors.

A :class:`KernelLaunch` is the unit of work a GPU executes: a duration
(solo execution time on this device, computed upstream by the op cost
model), an occupancy demand (fraction of the device's register file /
SM resources the tuned kernel wants — the quantity NVIDIA's occupancy
calculator reports), and bookkeeping identity (job/context, op name).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

_launch_ids = itertools.count(1)


@dataclass(slots=True)
class KernelLaunch:
    """One kernel enqueued on a GPU stream.

    ``meta`` is the device span's metadata, kept by reference: a
    mapping equal to ``{"context", "stream", "occupancy"}`` that the
    launcher shares across kernels (see
    :meth:`repro.sim.trace.Tracer.shared_meta`). ``None`` makes the
    device build one per span.
    """

    name: str                      # op name, e.g. "resnet50/conv2_1/conv2d"
    context: str                   # job identity (CUDA-context analogue)
    work_ms: float                 # solo execution time on this device
    occupancy: float               # fraction of device resources demanded
    stream: int = 0
    meta: Optional[Dict[str, Any]] = None
    launch_id: int = field(default_factory=_launch_ids.__next__)

    # Filled in by the device while executing.
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.work_ms < 0:
            raise ValueError(f"negative kernel work: {self.work_ms}")
        if not 0.0 < self.occupancy <= 1.0:
            raise ValueError(
                f"occupancy must be in (0, 1], got {self.occupancy}")

    def __repr__(self) -> str:
        return (f"<KernelLaunch {self.name!r} ctx={self.context!r} "
                f"work={self.work_ms:.3f}ms occ={self.occupancy:.2f}>")
