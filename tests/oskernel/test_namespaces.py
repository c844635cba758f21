"""Tests for namespace sets."""

import pytest

from repro.oskernel.namespaces import (
    DOCKER_KINDS,
    HPC_KINDS,
    SETUP_COST,
    NamespaceKind,
    NamespaceSet,
)


def test_host_set_has_all_kinds():
    host = NamespaceSet.host()
    for kind in NamespaceKind:
        assert host.get(kind).kind is kind


def test_unshare_creates_fresh_namespaces():
    host = NamespaceSet.host()
    child = host.unshare({NamespaceKind.MOUNT, NamespaceKind.PID})
    assert not child.shares(host, NamespaceKind.MOUNT)
    assert not child.shares(host, NamespaceKind.PID)
    assert child.shares(host, NamespaceKind.NET)
    assert child.shares(host, NamespaceKind.USER)


def test_isolated_kinds():
    host = NamespaceSet.host()
    child = host.unshare(DOCKER_KINDS)
    assert child.isolated_kinds(host) == DOCKER_KINDS


def test_docker_loses_host_network_hpc_keeps_it():
    """The §A distinction: Docker unshares NET, Singularity/Shifter do not."""
    host = NamespaceSet.host()
    docker = host.unshare(DOCKER_KINDS)
    hpc = host.unshare(HPC_KINDS)
    assert not docker.shares(host, NamespaceKind.NET)
    assert hpc.shares(host, NamespaceKind.NET)


def test_hpc_kinds_are_mount_and_pid_only():
    assert HPC_KINDS == {NamespaceKind.MOUNT, NamespaceKind.PID}


def test_setup_cost_net_dominates():
    assert SETUP_COST[NamespaceKind.NET] > 10 * sum(
        v for k, v in SETUP_COST.items() if k is not NamespaceKind.NET
    )
    assert NamespaceSet.setup_cost(DOCKER_KINDS) > NamespaceSet.setup_cost(HPC_KINDS)


def test_namespace_ids_unique():
    host = NamespaceSet.host()
    a = host.unshare({NamespaceKind.PID})
    b = host.unshare({NamespaceKind.PID})
    assert a.get(NamespaceKind.PID).ns_id != b.get(NamespaceKind.PID).ns_id


def test_incomplete_set_rejected():
    host = NamespaceSet.host()
    with pytest.raises(ValueError):
        NamespaceSet({NamespaceKind.PID: host.get(NamespaceKind.PID)})
