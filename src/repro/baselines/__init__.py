"""Baseline simulators.

* :mod:`repro.baselines.reference` — a deliberately simple AST interpreter,
  the golden model (the paper validates against Verilator's outputs; every
  engine here validates against this).
* :mod:`repro.baselines.verilator` — a Verilator-like full-cycle compiled
  CPU simulator with static macro-task scheduling (§2.1, §4.1); the paper
  benches model its multi-process batch time (``benchmarks/common.py``).
* :mod:`repro.baselines.essent` — an ESSENT-like event-driven simulator
  that skips inactive logic (§2.2, §2.3).
"""

from repro.baselines.reference import ReferenceSimulator

__all__ = ["ReferenceSimulator"]
