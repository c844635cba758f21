"""Tests for compatibility rules and network-path selection."""

import pytest

from repro.containers import (
    BareMetalRuntime,
    DockerRuntime,
    ShifterRuntime,
    SingularityRuntime,
)
from repro.containers.builder import ImageBuilder
from repro.containers.compat import (
    CompatibilityError,
    IncompatibleArchitectureError,
    RuntimeNotInstalledError,
    check_admin_for_daemon,
    check_architecture,
    check_runtime_installed,
)
from repro.containers.recipes import BuildTechnique, alya_recipe
from repro.core.deployment import _RUNTIME_CLASSES, image_for, runtime_class
from repro.hardware import catalog
from repro.hardware.cpu import Architecture
from repro.hardware.network import NetworkPath
from repro.oskernel.namespaces import NamespaceKind

SC = BuildTechnique.SELF_CONTAINED
SS = BuildTechnique.SYSTEM_SPECIFIC


def build_sif(arch=Architecture.X86_64, technique=BuildTechnique.SELF_CONTAINED):
    return ImageBuilder().build_sif(alya_recipe(technique, arch)).image


def test_arch_match_passes():
    check_architecture(build_sif(Architecture.X86_64), catalog.MARENOSTRUM4)


def test_arch_mismatch_raises():
    """x86 image on Power9 / Armv8: exec format error — images must be
    rebuilt per ISA (the §B.2 premise)."""
    img = build_sif(Architecture.X86_64)
    with pytest.raises(IncompatibleArchitectureError):
        check_architecture(img, catalog.CTE_POWER)
    with pytest.raises(IncompatibleArchitectureError):
        check_architecture(img, catalog.THUNDERX)
    check_architecture(build_sif(Architecture.PPC64LE), catalog.CTE_POWER)
    check_architecture(build_sif(Architecture.AARCH64), catalog.THUNDERX)


def test_runtime_installed_checks():
    check_runtime_installed("singularity", catalog.MARENOSTRUM4)
    check_runtime_installed("bare-metal", catalog.MARENOSTRUM4)
    with pytest.raises(RuntimeNotInstalledError):
        check_runtime_installed("docker", catalog.MARENOSTRUM4)
    with pytest.raises(RuntimeNotInstalledError):
        check_runtime_installed("shifter", catalog.CTE_POWER)


@pytest.mark.parametrize("name", sorted(catalog.ALL_CLUSTERS))
def test_every_installed_runtime_has_a_class(name):
    """Each runtime a catalog site installs resolves to a runtime class
    registered under the same name."""
    spec = catalog.ALL_CLUSTERS[name]
    for runtime_name in spec.installed_runtimes:
        assert runtime_class(runtime_name).name == runtime_name
        check_runtime_installed(runtime_name, spec)


def test_unregistered_runtime_is_refused():
    assert "charliecloud" not in _RUNTIME_CLASSES
    with pytest.raises(ValueError, match="unknown runtime"):
        runtime_class("charliecloud")
    for spec in catalog.ALL_CLUSTERS.values():
        with pytest.raises(RuntimeNotInstalledError):
            check_runtime_installed("charliecloud", spec)


def test_docker_needs_admin():
    check_admin_for_daemon("docker", catalog.LENOX)
    with pytest.raises(CompatibilityError):
        check_admin_for_daemon("docker", catalog.MARENOSTRUM4)
    check_admin_for_daemon("singularity", catalog.MARENOSTRUM4)


#: (runtime, build technique, --net=host) -> the path its MPI traffic takes.
PATH_TABLE = [
    (BareMetalRuntime, None, False, NetworkPath.HOST_NATIVE),
    (DockerRuntime, SC, False, NetworkPath.BRIDGE_NAT),
    (DockerRuntime, SS, False, NetworkPath.BRIDGE_NAT),
    (DockerRuntime, SC, True, NetworkPath.TCP_FALLBACK),
    (DockerRuntime, SS, True, NetworkPath.HOST_NATIVE),
    (SingularityRuntime, SC, False, NetworkPath.TCP_FALLBACK),
    (SingularityRuntime, SS, False, NetworkPath.HOST_NATIVE),
    (ShifterRuntime, SC, False, NetworkPath.TCP_FALLBACK),
    (ShifterRuntime, SS, False, NetworkPath.HOST_NATIVE),
]


@pytest.mark.parametrize(
    "cls,technique,host_network,expected", PATH_TABLE,
    ids=[f"{c.name}-{t.value if t else 'none'}{'-host' if h else ''}"
         for c, t, h, _ in PATH_TABLE],
)
def test_network_path_table(cls, technique, host_network, expected):
    """The path follows the runtime's declared namespace kinds: an
    unshared NET namespace means the bridge; sharing the host's leaves
    the choice to the image."""
    runtime = cls(host_network=True) if host_network else cls()
    image = (
        None if technique is None
        else image_for(cls, alya_recipe(technique))
    )
    assert runtime.network_path(image) is expected
    unshares_net = NamespaceKind.NET in runtime.unshares
    assert unshares_net == (expected is NetworkPath.BRIDGE_NAT)
