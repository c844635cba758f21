"""Tests for the claim registry and the memory guardrail."""

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.compat import CompatibilityError
from repro.core.experiment import ExperimentSpec
from repro.core.paper_reference import CLAIMS, claims_table
from repro.hardware import catalog


def test_claims_cover_every_artefact():
    artefacts = {c.artefact for c in CLAIMS}
    assert any("fig1" in a for a in artefacts)
    assert any("fig2" in a for a in artefacts)
    assert any("fig3" in a for a in artefacts)
    assert any("eval1" in a for a in artefacts)
    assert any("eval2" in a for a in artefacts)
    assert any("io_overhead" in a for a in artefacts)


def test_claim_ids_unique_and_lookup():
    ids = [c.claim_id for c in CLAIMS]
    assert len(ids) == len(set(ids))


def test_claims_table_renders():
    text = claims_table()
    assert "F1-docker-degrades" in text
    assert "regenerated by" in text


def test_cli_claims_command(capsys):
    from repro.cli import main

    assert main(["claims"]) == 0
    out = capsys.readouterr().out
    assert "Paper claims" in out
    assert "bench_fig3_mn4_scalability.py" in out


# ----------------------------- memory guardrail ---------------------------------


def test_oversized_mesh_rejected():
    """A mesh whose per-node share exceeds DRAM cannot be scheduled."""
    huge = AlyaWorkModel(case=CaseKind.CFD, n_cells=4_000_000_000)
    with pytest.raises(CompatibilityError, match="GiB"):
        ExperimentSpec(
            name="oom",
            cluster=catalog.MARENOSTRUM4,  # 96 GiB/node
            runtime_name="bare-metal",
            technique=None,
            workmodel=huge,
            n_nodes=2,
            ranks_per_node=48,
        )


def test_same_mesh_fits_with_more_nodes():
    huge = AlyaWorkModel(case=CaseKind.CFD, n_cells=4_000_000_000)
    spec = ExperimentSpec(
        name="fits",
        cluster=catalog.MARENOSTRUM4,
        runtime_name="bare-metal",
        technique=None,
        workmodel=huge,
        n_nodes=32,
        ranks_per_node=48,
    )
    assert spec.total_ranks == 32 * 48


def test_paper_cases_fit_their_machines():
    from repro.core import calibration

    # Each canonical case fits the smallest node count its study uses.
    assert calibration.lenox_cfd_workmodel().memory_per_node(4) < (
        catalog.LENOX.node.memory.capacity
    )
    assert calibration.ctepower_cfd_workmodel().memory_per_node(2) < (
        catalog.CTE_POWER.node.memory.capacity
    )
    assert calibration.mn4_fsi_workmodel().memory_per_node(4) < (
        catalog.MARENOSTRUM4.node.memory.capacity
    )


def test_memory_per_node_scales():
    wm = AlyaWorkModel(case=CaseKind.CFD, n_cells=1_000_000)
    assert wm.memory_per_node(2) == pytest.approx(2 * wm.memory_per_node(4))
    with pytest.raises(ValueError):
        wm.memory_per_node(0)
