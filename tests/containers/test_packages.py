"""Tests for the package database and dependency resolution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers.packages import (
    MB,
    PACKAGE_DB,
    Package,
    resolve_dependencies,
)
from repro.containers.recipes import BuildTechnique, ContainerRecipe
from repro.hardware.cpu import Architecture


def installed_size(names, arch):
    """Content bytes of an image holding ``names`` (first one the base)."""
    base, *payload = names
    return ContainerRecipe(
        "t", base, tuple(payload), BuildTechnique.SYSTEM_SPECIFIC, arch
    ).content_size()


def test_db_contains_stack():
    for name in ("centos7-base", "openmpi-generic", "openmpi-fabric",
                 "libpsm2", "alya", "alya-testdata"):
        assert name in PACKAGE_DB


def test_resolve_includes_transitive_deps():
    pkgs = resolve_dependencies(["alya"])
    names = [p.name for p in pkgs]
    assert "alya" in names
    assert "gcc-gfortran-runtime" in names
    assert "glibc-runtime" in names
    # deps come before dependents
    assert names.index("glibc-runtime") < names.index("gcc-gfortran-runtime")
    assert names.index("gcc-gfortran-runtime") < names.index("alya")


def test_resolve_deduplicates():
    pkgs = resolve_dependencies(["alya", "openblas", "hdf5"])
    names = [p.name for p in pkgs]
    assert len(names) == len(set(names))


def test_resolve_unknown_package():
    with pytest.raises(KeyError):
        resolve_dependencies(["not-a-package"])


def test_resolve_detects_cycles():
    db = {
        "a": Package("a", 1.0, deps=("b",)),
        "b": Package("b", 1.0, deps=("a",)),
    }
    with pytest.raises(ValueError, match="cycle"):
        resolve_dependencies(["a"], db)


def test_arch_factor_changes_size():
    alya = PACKAGE_DB["alya"]
    x86 = alya.size_on(Architecture.X86_64)
    ppc = alya.size_on(Architecture.PPC64LE)
    arm = alya.size_on(Architecture.AARCH64)
    assert ppc > x86 > arm


def test_installed_size_positive_and_additive():
    just_base = installed_size(["centos7-base"], Architecture.X86_64)
    with_app = installed_size(["centos7-base", "alya"], Architecture.X86_64)
    assert just_base == pytest.approx(204 * MB)
    assert with_app > just_base


def test_capability_flags():
    assert PACKAGE_DB["openmpi-generic"].provides_mpi
    assert not PACKAGE_DB["openmpi-generic"].provides_fabric
    assert PACKAGE_DB["openmpi-fabric"].provides_fabric
    assert PACKAGE_DB["libpsm2"].provides_fabric


@given(
    names=st.lists(
        st.sampled_from(sorted(PACKAGE_DB)), min_size=1, max_size=6
    )
)
@settings(max_examples=50, deadline=None)
def test_property_resolution_is_deterministic_and_closed(names):
    a = resolve_dependencies(names)
    b = resolve_dependencies(names)
    assert [p.name for p in a] == [p.name for p in b]
    resolved = {p.name for p in a}
    for p in a:
        assert set(p.deps) <= resolved  # closure property
