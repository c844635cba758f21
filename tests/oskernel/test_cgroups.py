"""Tests for the cgroup hierarchy."""

import pytest

from repro.oskernel.cgroups import CgroupHierarchy


@pytest.fixture
def hier():
    return CgroupHierarchy()


def test_create_nested_path(hier):
    g = hier.create("/docker/ctr1")
    assert g.path() == "/docker/ctr1"
    assert g.parent is hier.root.children["docker"]
    assert hier.create("/docker/ctr1") is g  # mkdir -p is idempotent


def test_attach_moves_pid(hier):
    a = hier.create("/a")
    b = hier.create("/b")
    hier.attach(100, a)
    assert 100 in a.pids
    hier.attach(100, b)
    assert 100 in b.pids
    assert 100 not in a.pids


def test_validation(hier):
    with pytest.raises(ValueError):
        hier.create("relative/path")
    with pytest.raises(ValueError):
        hier.create("/")
