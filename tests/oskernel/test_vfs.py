"""Tests for the in-memory VFS."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oskernel.vfs import FileSystem, VfsError, normalize


@pytest.fixture
def fs():
    f = FileSystem("test")
    f.mkdir("/usr/lib", parents=True)
    f.write_file("/usr/lib/libmpi.so", 4_000_000)
    f.write_file("/usr/lib/libc.so", 2_000_000)
    f.mkdir("/data")
    return f


def test_normalize():
    assert normalize("/a//b/./c/") == "/a/b/c"
    assert normalize("/a/b/../c") == "/a/c"
    assert normalize("/") == "/"
    assert normalize("/../..") == "/"
    with pytest.raises(VfsError):
        normalize("relative")


def test_lookup_and_exists(fs):
    assert fs.exists("/usr/lib/libmpi.so")
    assert fs.exists("/usr//lib/")
    assert not fs.exists("/usr/missing")
    assert fs.is_dir("/usr")
    assert not fs.is_dir("/usr/lib/libc.so")


def test_mkdir_semantics(fs):
    with pytest.raises(VfsError):
        fs.mkdir("/a/b/c")  # parent missing
    fs.mkdir("/a/b/c", parents=True)
    assert fs.is_dir("/a/b/c")
    with pytest.raises(VfsError):
        fs.mkdir("/a/b/c")  # already exists
    fs.mkdir("/a/b/c", parents=True)  # idempotent with parents


def test_write_file(fs):
    fs.write_file("/data/mesh.bin", 123.0)
    assert fs.size_of("/data/mesh.bin") == 123.0
    fs.write_file("/data/mesh.bin", 456.0)  # overwrite
    assert fs.size_of("/data/mesh.bin") == 456.0
    with pytest.raises(VfsError):
        fs.write_file("/nope/file", 1)
    fs.write_file("/nope/file", 1, parents=True)
    with pytest.raises(VfsError):
        fs.write_file("/usr", 1)  # is a directory
    with pytest.raises(VfsError):
        fs.write_file("/", 1)


def test_negative_size_rejected(fs):
    with pytest.raises(VfsError):
        fs.write_file("/data/bad", -5)


def test_size_of_requires_file(fs):
    with pytest.raises(VfsError):
        fs.size_of("/usr")


def test_walk_files_paths(fs):
    paths = [p for p, _ in fs.walk_files("/")]
    assert paths == ["/usr/lib/libc.so", "/usr/lib/libmpi.so"]


path_segments = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=4), min_size=1, max_size=4
)


@given(segs=path_segments, size=st.floats(min_value=0, max_value=1e9))
@settings(max_examples=60, deadline=None)
def test_property_write_then_read_roundtrip(segs, size):
    fs = FileSystem()
    path = "/" + "/".join(segs)
    fs.write_file(path, size, parents=True)
    assert fs.size_of(path) == size
    assert [p for p, _ in fs.walk_files()] == [path]
