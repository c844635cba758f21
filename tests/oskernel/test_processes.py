"""Tests for the process table: namespace unsharing, SUID transitions."""

import pytest

from repro.oskernel.mounts import MountTable
from repro.oskernel.namespaces import HPC_KINDS, NamespaceKind, NamespaceSet
from repro.oskernel.processes import Credentials, ProcessError, ProcessTable
from repro.oskernel.vfs import FileSystem


@pytest.fixture
def table():
    host_ns = NamespaceSet.host()
    return ProcessTable(host_ns, MountTable(FileSystem("root")))


def test_init_is_pid1_root(table):
    init = table.get(table.init_pid)
    assert init.creds.is_privileged
    assert init.global_pid == 1


def test_fork_inherits(table):
    child = table.fork(table.init_pid, argv=("bash",))
    assert child.parent == table.init_pid
    assert child.namespaces is table.get(table.init_pid).namespaces
    assert child.mount_table is table.get(table.init_pid).mount_table
    assert child.creds == Credentials.root()


def test_fork_with_user_creds(table):
    user = table.fork(table.init_pid, argv=("login",), creds=Credentials.user(1000))
    assert not user.creds.is_privileged
    assert user.creds.uid == 1000


def test_unprivileged_cannot_unshare(table):
    user = table.fork(table.init_pid, argv=("sh",), creds=Credentials.user(1000))
    with pytest.raises(ProcessError, match="requires privilege"):
        table.fork(user.global_pid, argv=("ctr",), unshare=HPC_KINDS)


def test_suid_escalation_enables_unshare(table):
    """The Singularity starter pattern: user -> SUID escalate -> unshare ->
    drop privileges."""
    user = table.fork(table.init_pid, argv=("sh",), creds=Credentials.user(1000))
    suid_creds = user.creds.escalate_suid()
    starter = table.fork(
        user.global_pid, argv=("starter-suid",), creds=suid_creds
    )
    container = table.fork(
        starter.global_pid,
        argv=("alya",),
        unshare=HPC_KINDS,
        creds=suid_creds.drop_privileges(),
    )
    assert not container.creds.is_privileged
    assert container.creds.uid == 1000  # identity preserved in container


def test_user_namespace_unshare_is_unprivileged(table):
    user = table.fork(table.init_pid, argv=("sh",), creds=Credentials.user(1000))
    child = table.fork(
        user.global_pid, argv=("x",), unshare=frozenset({NamespaceKind.USER})
    )
    assert not child.namespaces.shares(user.namespaces, NamespaceKind.USER)


def test_mount_unshare_clones_table(table):
    container = table.fork(
        table.init_pid, argv=("ctr",), unshare=frozenset({NamespaceKind.MOUNT})
    )
    assert container.mount_table is not table.get(table.init_pid).mount_table
    image = FileSystem("sif")
    image.write_file("/bin/app", 1, parents=True)
    container.mount_table.mount_squashfs(image, "/ctr")
    assert container.mount_table.exists("/ctr/bin/app")
    assert not table.get(table.init_pid).mount_table.exists("/ctr/bin/app")


def test_get_missing_pid(table):
    with pytest.raises(ProcessError):
        table.get(9999)


def test_credentials_transitions():
    creds = Credentials.user(500)
    up = creds.escalate_suid()
    assert up.is_privileged and up.uid == 500
    down = up.drop_privileges()
    assert down == creds
