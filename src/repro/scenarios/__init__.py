"""Adversarial scenario engine: composable fault models for the NCC0 stack.

Real overlays face delays, drops, crashes, and partitions *simultaneously*
(§1.4's churn discussion and footnote 2's asynchrony caveat are where the
paper meets that reality).  This package turns those fault models into a
declarative, reproducible subsystem:

- :mod:`repro.scenarios.spec` — :class:`ScenarioSpec`, a stack of
  adversaries (link delays, oblivious message drops, crash waves with
  optional rejoin, temporary partitions), each compiled into columnar
  event streams applied inside the network's delivery tail, so both
  execution tiers see *identical* faults under a shared seed;
- :mod:`repro.scenarios.soa_sync` — the columnar α-synchroniser: a flat
  delay queue (release-time column + stable bucketing) replacing per-node
  message holding, which is what lets delay/churn sweeps run at
  ``n ≥ 10⁵``;
- :mod:`repro.scenarios.runner` — :class:`ScenarioRunner`, executing
  named scenario grids (delay × drop × churn) across execution tiers and
  emitting machine-readable JSON
  (consumed by ``benchmarks/bench_s4_scenario_scaling.py``).
"""

from repro.scenarios.spec import (
    CrashWave,
    FaultInjector,
    LinkDelay,
    MessageDrop,
    Partition,
    ScenarioSpec,
)
from repro.scenarios.soa_sync import SoADelayQueue, run_soa_synchroniser
from repro.scenarios.runner import SCENARIO_GRIDS, ScenarioRunner, run_rooting_scenario

__all__ = [
    "CrashWave",
    "FaultInjector",
    "LinkDelay",
    "MessageDrop",
    "Partition",
    "ScenarioSpec",
    "SoADelayQueue",
    "run_soa_synchroniser",
    "SCENARIO_GRIDS",
    "ScenarioRunner",
    "run_rooting_scenario",
]
