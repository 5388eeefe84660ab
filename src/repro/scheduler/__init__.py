"""Schedulers: GrowLocal (the paper's contribution) and all baselines.

* :class:`~repro.scheduler.growlocal.GrowLocalScheduler` — Algorithm 3.1;
* :class:`~repro.scheduler.funnel_gl.FunnelGrowLocalScheduler` — Funnel
  coarsening + GrowLocal (Section 4);
* :class:`~repro.scheduler.spmp.SpMPScheduler` — SpMP baseline [PSSD14];
* :class:`~repro.scheduler.hdagg.HDaggScheduler` — HDagg baseline [ZCL+22];
* :class:`~repro.scheduler.bsp_list.BSPListScheduler` — BSPg-style barrier
  list scheduler [PAKY24];
* :class:`~repro.scheduler.wavefront_sched.WavefrontScheduler` — classic
  level sets [AS89];
* :class:`~repro.scheduler.serial.SerialScheduler` — the speed-up baseline;
* :class:`~repro.scheduler.block.BlockScheduler` — block-parallel wrapper
  (Section 3.1);
* :mod:`~repro.scheduler.reorder` — the locality reordering (Section 5).
"""

from repro.scheduler.base import Scheduler
from repro.scheduler.block import BlockScheduler, split_rows_by_weight
from repro.scheduler.bsp_list import BSPListScheduler
from repro.scheduler.funnel_gl import FunnelGrowLocalScheduler
from repro.scheduler.growlocal import GrowLocalScheduler
from repro.scheduler.hdagg import HDaggScheduler
from repro.scheduler.registry import (
    available_schedulers,
    make_scheduler,
    register_scheduler,
)
from repro.scheduler.reorder import apply_reordering, schedule_reordering
from repro.scheduler.schedule import Schedule
from repro.scheduler.serialize import (
    load_schedule_json,
    save_schedule_json,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.scheduler.serial import SerialScheduler
from repro.scheduler.spmp import SpMPScheduler
from repro.scheduler.wavefront_sched import WavefrontScheduler

__all__ = [
    "BSPListScheduler",
    "BlockScheduler",
    "FunnelGrowLocalScheduler",
    "GrowLocalScheduler",
    "HDaggScheduler",
    "Schedule",
    "Scheduler",
    "SerialScheduler",
    "SpMPScheduler",
    "WavefrontScheduler",
    "apply_reordering",
    "available_schedulers",
    "load_schedule_json",
    "make_scheduler",
    "register_scheduler",
    "save_schedule_json",
    "schedule_from_dict",
    "schedule_reordering",
    "schedule_to_dict",
    "split_rows_by_weight",
]
