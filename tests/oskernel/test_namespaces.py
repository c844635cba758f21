"""Tests for namespace kinds, their setup costs and each runtime's set."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers import (
    BareMetalRuntime,
    DockerRuntime,
    ShifterRuntime,
    SingularityRuntime,
)
from repro.oskernel.namespaces import (
    DOCKER_KINDS,
    HPC_KINDS,
    SETUP_COST,
    NamespaceKind,
    setup_cost,
)


def test_docker_loses_host_network_hpc_keeps_it():
    """The §A distinction: Docker unshares NET, Singularity/Shifter do not."""
    assert NamespaceKind.NET in DOCKER_KINDS
    assert NamespaceKind.NET not in HPC_KINDS


def test_hpc_kinds_are_mount_and_pid_only():
    assert HPC_KINDS == {NamespaceKind.MOUNT, NamespaceKind.PID}


def test_setup_cost_net_dominates():
    assert SETUP_COST[NamespaceKind.NET] > 10 * sum(
        v for k, v in SETUP_COST.items() if k is not NamespaceKind.NET
    )
    assert setup_cost(DOCKER_KINDS) > setup_cost(HPC_KINDS)


def test_setup_cost_sums_in_sorted_kind_order():
    """One float order whatever the set's iteration order."""
    kinds = sorted(DOCKER_KINDS, key=lambda k: k.value)
    expected = 0
    for kind in kinds:
        expected += SETUP_COST[kind]
    assert setup_cost(DOCKER_KINDS) == expected
    assert setup_cost(list(reversed(kinds))) == expected
    assert setup_cost(()) == 0


@given(kinds=st.permutations(list(NamespaceKind)), n=st.integers(0, 7))
@settings(max_examples=50, deadline=None)
def test_setup_cost_is_order_free_for_any_subset(kinds, n):
    subset = kinds[:n]
    cost = setup_cost(subset)
    assert cost == setup_cost(sorted(subset, key=lambda k: k.value))
    assert cost == setup_cost(frozenset(subset))


def test_every_kind_has_a_setup_cost():
    assert set(SETUP_COST) == set(NamespaceKind)
    assert all(cost > 0 for cost in SETUP_COST.values())


#: Runtime -> the namespace kinds it declares (§A).
DECLARED = {
    "bare-metal": (BareMetalRuntime(), frozenset()),
    "singularity": (SingularityRuntime(), HPC_KINDS),
    "shifter": (ShifterRuntime(), HPC_KINDS),
    "docker": (DockerRuntime(), DOCKER_KINDS),
    "docker-host": (
        DockerRuntime(host_network=True),
        DOCKER_KINDS - {NamespaceKind.NET},
    ),
}


@pytest.mark.parametrize("case", sorted(DECLARED))
def test_runtime_declares_its_kinds(case):
    runtime, expected = DECLARED[case]
    assert runtime.unshares == expected
    assert isinstance(runtime.unshares, frozenset)
