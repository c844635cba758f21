"""SLURM-like batch scheduler substrate.

The paper's runs go through a production batch system; this subpackage
models the parts that shape an experiment: node allocation out of a
partition and task layout (``--ntasks`` / ``--cpus-per-task``).  Core
binding is not modelled: no result depends on which cores a task gets.
"""

from repro.scheduler.jobs import JobRequest, JobState, Allocation
from repro.scheduler.slurm import Partition, SlurmScheduler, SchedulerError

__all__ = [
    "Allocation",
    "JobRequest",
    "JobState",
    "Partition",
    "SchedulerError",
    "SlurmScheduler",
]
