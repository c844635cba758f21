"""repro — reproduction of *Containers in HPC* (Rudyy et al., 2019).

The package is organised bottom-up:

- :mod:`repro.des` — discrete-event simulation engine (generator-based
  processes, stores, fair-share network links).
- :mod:`repro.hardware` — CPU / node / fabric / cluster models and the
  catalog of the four clusters used in the paper.
- :mod:`repro.oskernel` — Linux-kernel container machinery (namespace
  kinds and their setup costs, a VFS for image layers, per-node state).
- :mod:`repro.containers` — image formats, build recipes, registry and the
  Docker / Singularity / Shifter / bare-metal runtime models.
- :mod:`repro.mpi` / :mod:`repro.openmp` — simulated MPI ranks with real
  collective algorithms, and a fork-join threading model.
- :mod:`repro.scheduler` — SLURM-like batch scheduler.
- :mod:`repro.alya` — the Alya-like workload: the work model (per-step
  flops, halo bytes, collectives) that drives the simulator.
- :mod:`repro.core` — the paper's study framework: experiments, runner,
  metrics, and the three evaluations (solutions, portability, scalability).
"""

__version__ = "1.0.0"
