#!/usr/bin/env python3
"""Containerization solutions (§B.1): Docker vs Singularity vs Shifter.

Reproduces the Lenox evaluation end to end: builds the images each
runtime consumes, deploys them through each runtime's modelled steps
(pull, namespaces, cgroup, overlay/squashfs mounts), runs the artery CFD case
across the paper's rank x thread configurations, and prints the Fig. 1
series plus the deployment-overhead / image-size table.

Run:  python examples/container_runtime_comparison.py
"""

from repro.core.figures import deployment_table, fig1_table
from repro.core.report import check_deployment, check_fig1, verdict_lines
from repro.core.study import ContainerSolutionsStudy


def main() -> None:
    print("== §B.1 on Lenox: 4 nodes x 28 cores, 1 GbE, artery CFD ==\n")
    study = ContainerSolutionsStudy(sim_steps=2)
    outcome = study.run()

    print("Fig. 1 — average elapsed time [s] per MPI x OpenMP layout:\n")
    print(fig1_table(outcome))

    print("\nWhy Docker degrades: its NET namespace forces MPI through the")
    print("bridge+NAT path — per-message softirq work serialized per node —")
    print("while Singularity/Shifter share the host network namespace.\n")

    rows = outcome.deployment_rows()
    print("Deployment overhead and image size (4-node job):\n")
    print(deployment_table(rows))

    print("\nShape checks against the paper:")
    print(verdict_lines(check_fig1(outcome)))
    print(verdict_lines(check_deployment(rows)))


if __name__ == "__main__":
    main()
