"""Tests for mounts: bind/squashfs/overlay and namespace cloning."""

import pytest

from repro.oskernel.mounts import MountError, MountTable, OverlayFS
from repro.oskernel.vfs import FileSystem


def make_rootfs():
    fs = FileSystem("host-root")
    fs.mkdir("/usr/lib64", parents=True)
    fs.write_file("/usr/lib64/libpsm2.so", 1_000_000)
    fs.mkdir("/home/user", parents=True)
    fs.mkdir("/gpfs/scratch", parents=True)
    return fs


def test_resolve_defaults_to_rootfs():
    table = MountTable(make_rootfs())
    fs, inner, ro = table.resolve("/home/user")
    assert inner == "/home/user"
    assert not ro
    assert table.exists("/usr/lib64/libpsm2.so")


def test_bind_mount_translation():
    root = make_rootfs()
    table = MountTable(root)
    table.bind(root, "/usr/lib64", "/container/hostlibs", readonly=True)
    fs, inner, ro = table.resolve("/container/hostlibs/libpsm2.so")
    assert inner == "/usr/lib64/libpsm2.so"
    assert ro
    assert table.size_of("/container/hostlibs/libpsm2.so") == 1_000_000


def test_bind_requires_directory_source():
    root = make_rootfs()
    table = MountTable(root)
    with pytest.raises(MountError):
        table.bind(root, "/usr/lib64/libpsm2.so", "/x")


def test_readonly_mount_rejects_writes():
    root = make_rootfs()
    table = MountTable(root)
    table.bind(root, "/usr/lib64", "/ro", readonly=True)
    with pytest.raises(MountError):
        table.write_file("/ro/new.so", 10)


def test_squashfs_mount_is_readonly():
    image = FileSystem("sif")
    image.write_file("/opt/alya/bin/alya", 50_000_000, parents=True)
    table = MountTable(make_rootfs())
    table.mount_squashfs(image, "/containers/alya")
    assert table.size_of("/containers/alya/opt/alya/bin/alya") == 50_000_000
    with pytest.raises(MountError):
        table.write_file("/containers/alya/scratch", 1)


def test_longest_prefix_wins():
    root = make_rootfs()
    table = MountTable(root)
    image = FileSystem("sif")
    image.write_file("/file", 1, parents=True)
    table.bind(root, "/home", "/mnt")
    table.mount_squashfs(image, "/mnt/tmp")
    fs, inner_path, _ = table.resolve("/mnt/tmp/file")
    assert fs.label == "sif"
    assert inner_path == "/file"
    fs2, inner2, _ = table.resolve("/mnt/user")
    assert inner2 == "/home/user"


def test_clone_is_private():
    """A cloned table (new mount namespace) diverges without affecting host."""
    root = make_rootfs()
    table = MountTable(root)
    child = table.clone()
    image = FileSystem("sif")
    image.write_file("/data", 9)
    child.mount_squashfs(image, "/container")
    assert child.exists("/container/data")
    assert not table.exists("/container/data")
    table.bind(root, "/home", "/hostonly")
    assert not any(m.target == "/hostonly" for m in child.mounts)


# ------------------------------- overlay -----------------------------------


def make_layers():
    base = FileSystem("layer0")
    base.write_file("/etc/os-release", 100, parents=True)
    base.write_file("/usr/bin/sh", 1000, parents=True)
    mid = FileSystem("layer1")
    mid.write_file("/usr/bin/mpirun", 5000, parents=True)
    return base, mid


def test_overlay_union_lookup():
    base, mid = make_layers()
    ov = OverlayFS([mid, base])
    assert ov.exists("/etc/os-release")
    assert ov.exists("/usr/bin/mpirun")
    assert ov.is_dir("/usr/bin")
    assert not ov.exists("/usr/bin/missing")


def test_overlay_upper_shadows_lower():
    base, mid = make_layers()
    ov = OverlayFS([mid, base])
    ov.write_file("/usr/bin/sh", 2000)
    assert ov.size_of("/usr/bin/sh") == 2000
    assert base.size_of("/usr/bin/sh") == 1000  # lower untouched


def test_overlay_copy_up_accounting():
    base, mid = make_layers()
    ov = OverlayFS([mid, base])
    assert ov.bytes_copied_up == 0
    ov.write_file("/usr/bin/sh", 2000)  # modifies a lower file
    assert ov.bytes_copied_up == pytest.approx(1000)
    ov.write_file("/newfile", 50)  # brand-new: no copy-up
    assert ov.bytes_copied_up == pytest.approx(1000)


def test_overlay_du_deduplicates():
    base, mid = make_layers()
    ov = OverlayFS([mid, base])
    plain = ov.du()
    assert plain == pytest.approx(100 + 1000 + 5000)
    ov.write_file("/usr/bin/sh", 2000)
    # sh now counted from upper (2000), not lower (1000).
    assert ov.du() == pytest.approx(100 + 2000 + 5000)


def test_overlay_needs_lower():
    with pytest.raises(MountError):
        OverlayFS([])


def test_mount_overlay_through_table():
    base, mid = make_layers()
    table = MountTable(make_rootfs())
    table.mount_overlay([mid, base], "/merged")
    assert table.exists("/merged/usr/bin/mpirun")
    table.write_file("/merged/usr/bin/newtool", 77)
    assert table.size_of("/merged/usr/bin/newtool") == 77
    assert not base.exists("/usr/bin/newtool")
    assert not mid.exists("/usr/bin/newtool")
