"""RTL graph partitioning into GPU macro tasks (§3.2.1).

* :mod:`repro.partition.weights` — the weight function of Eq. 1.
* :mod:`repro.partition.merge` — node-to-task merging (the Verilator-style
  default with hard-coded weights, and the weighted variant the MCMC
  sampler drives).
* :mod:`repro.partition.mcmc` — the GPU-aware Metropolis–Hastings
  optimizer of Algorithm 1 with its compile-and-run cost estimator.
"""

from repro.partition.taskgraph import Task, TaskGraph
from repro.partition.weights import WeightVector
from repro.partition.merge import partition

# repro.partition.mcmc is not re-exported: importing the package (as
# every `import repro` does) must not load the sampler.

__all__ = [
    "Task",
    "TaskGraph",
    "WeightVector",
    "partition",
]
