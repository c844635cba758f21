#!/usr/bin/env python3
"""Quickstart: one Alya case on the simulated cluster in seconds.

A 10-million-cell artery CFD case, described by its work model, runs on
the simulated MareNostrum4 at 8 nodes: bare-metal against Singularity
with a system-specific and a self-contained image.

Run:  python examples/quickstart.py
"""

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.hardware import catalog


def main() -> None:
    work = AlyaWorkModel(
        case=CaseKind.CFD, n_cells=10_000_000, nominal_timesteps=200
    )
    print("== Simulated cluster run: MareNostrum4, 8 nodes ==")
    runner = ExperimentRunner()
    for runtime, technique in (
        ("bare-metal", None),
        ("singularity", BuildTechnique.SYSTEM_SPECIFIC),
        ("singularity", BuildTechnique.SELF_CONTAINED),
    ):
        label = runtime if technique is None else f"{runtime} ({technique.value})"
        spec = ExperimentSpec(
            name=f"quickstart-{label}",
            cluster=catalog.MARENOSTRUM4,
            runtime_name=runtime,
            technique=technique,
            workmodel=work,
            n_nodes=8,
            ranks_per_node=48,
            threads_per_rank=1,
            sim_steps=2,
            granularity=EndpointGranularity.NODE,
        )
        result = runner.run(spec)
        print(
            f"{label:36s} elapsed {result.elapsed_seconds:8.1f} s   "
            f"deploy {result.deployment_seconds:6.2f} s   "
            f"image {result.image_size_bytes / 1e6:7.1f} MB"
        )
    print(
        "\nThe system-specific container matches bare-metal (it drives the"
        "\nOmni-Path fabric through the host MPI); the self-contained one"
        "\nfalls back to TCP and pays for it — the paper's central finding."
    )


if __name__ == "__main__":
    main()
