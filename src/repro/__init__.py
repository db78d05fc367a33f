"""MEMCON: content-based detection and mitigation of data-dependent DRAM
failures — a full reproduction of Khan et al., MICRO 2017.

Public API highlights
---------------------
* :mod:`repro.dram` — cell-level DRAM model with data-dependent faults.
* :mod:`repro.testinfra` — SoftMC-style retention tester and data patterns.
* :mod:`repro.traces` — write-trace generation for the paper's workloads.
* :mod:`repro.analysis` — Pareto fitting and write-interval statistics.
* :mod:`repro.core` — cost model and MEMCON's refresh-reduction accounting.
* :mod:`repro.mc` / :mod:`repro.sim` — cycle-level performance simulator.
* :mod:`repro.experiments` — one module per paper figure/table.
* :mod:`repro.obs` — metrics registry, span timing, JSONL event traces
  and run manifests across the whole pipeline.
"""

__version__ = "1.0.0"
