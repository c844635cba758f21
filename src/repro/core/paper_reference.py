"""The paper's claims, as data.

Every claim the reproduction targets is recorded here with its source
location in the paper, the check that validates it
(:mod:`repro.core.report`), and the artefact that regenerates the
evidence.  ``repro-study claims`` renders this registry; EXPERIMENTS.md
is its long-form counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.figures import ascii_table


@dataclass(frozen=True)
class PaperClaim:
    """One falsifiable statement from the paper."""

    claim_id: str
    source: str
    statement: str
    check: str
    artefact: str


CLAIMS: tuple[PaperClaim, ...] = (
    PaperClaim(
        claim_id="F1-hpc-runtimes",
        source="Fig. 1 / §C",
        statement=(
            "HPC designed containers (Shifter and Singularity) can reach "
            "close to bare-metal performances"
        ),
        check="check_fig1: singularity/shifter_tracks_bare_metal",
        artefact="benchmarks/bench_fig1_lenox_solutions.py",
    ),
    PaperClaim(
        claim_id="F1-docker-degrades",
        source="Fig. 1 / §C",
        statement="Docker degrades soon as we scale in MPI",
        check="check_fig1: docker_gap_grows_with_ranks, docker_worst_at_112x1",
        artefact="benchmarks/bench_fig1_lenox_solutions.py",
    ),
    PaperClaim(
        claim_id="B1-deployment",
        source="§B.1",
        statement=(
            "The solutions differ in deployment overhead, image size and "
            "execution time"
        ),
        check="check_deployment (all orderings)",
        artefact="benchmarks/bench_eval1_deployment.py",
    ),
    PaperClaim(
        claim_id="F2-integrated-equals-bare",
        source="Fig. 2 / §C",
        statement=(
            "The integrated container (Singularity system-specific) can "
            "equal bare-metal performance"
        ),
        check="check_fig2: system_specific_equals_bare_metal",
        artefact="benchmarks/bench_fig2_ctepower_portability.py",
    ),
    PaperClaim(
        claim_id="F2-self-contained-no-edr",
        source="Fig. 2 / §C",
        statement=(
            "the self-contained container is unable to use the Mellanox "
            "EDR network"
        ),
        check="check_fig2: self_contained_slower_everywhere / _at_scale",
        artefact="benchmarks/bench_fig2_ctepower_portability.py",
    ),
    PaperClaim(
        claim_id="B2-three-archs",
        source="§B.2",
        statement=(
            "the same containerized application executes with Singularity "
            "on three different architectures (after per-ISA rebuilds)"
        ),
        check="run_three_archs: per-ISA runs succeed, foreign image rejected",
        artefact="benchmarks/bench_eval2_three_archs.py",
    ),
    PaperClaim(
        claim_id="F3-integrated-scales",
        source="Fig. 3 / §C",
        statement=(
            "the integrated container can leverage the Intel Omni-Path "
            "network (scales with bare-metal to 256 nodes)"
        ),
        check="check_fig3: system_specific_tracks_bare_metal",
        artefact="benchmarks/bench_fig3_mn4_scalability.py",
    ),
    PaperClaim(
        claim_id="F3-self-contained-stops",
        source="Fig. 3 / §C",
        statement="the self-contained at 32 nodes stops scaling",
        check="check_fig3: self_contained_stops_scaling_at_32",
        artefact="benchmarks/bench_fig3_mn4_scalability.py",
    ),
    PaperClaim(
        claim_id="C-tunable-tradeoff",
        source="§C (conclusions)",
        statement=(
            "containers can be tuned to leverage host-specific features in "
            "exchange of portability"
        ),
        check="network-path ablation + fig2/fig3 technique gap",
        artefact="benchmarks/bench_ablation_network_paths.py",
    ),
    PaperClaim(
        claim_id="D-io-future-work",
        source="§D (future work)",
        statement=(
            "a deeper evaluation of I/O and distributed storage performance "
            "using containers [is] interesting future work"
        ),
        check="bind-mount == bare-metal; overlay pays copy-up + local disk",
        artefact="benchmarks/bench_ext_io_overhead.py",
    ),
)


def claims_table(claims: Sequence[PaperClaim] = CLAIMS) -> str:
    """Render the claim registry."""
    rows = [
        [c.claim_id, c.source, c.statement[:58], c.artefact.split("/")[-1]]
        for c in claims
    ]
    return ascii_table(["id", "source", "claim", "regenerated by"], rows)
