"""Compatibility rules: what can run where.

Centralises the checks the paper's §B.2 portability study turns on:

1. **ISA**: an image only runs on nodes of its architecture — the reason
   the study rebuilds the container per machine (Skylake / Power9 / Armv8).
2. **Runtime availability**: Docker exists only where the experimenters
   have root for its daemon (Lenox).

Which network path MPI takes is not a rule here: it follows from the
namespace kinds each runtime unshares
(:meth:`repro.containers.runtime.ContainerRuntime.network_path`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.containers.image import AnyImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cluster import ClusterSpec


class CompatibilityError(RuntimeError):
    """The experiment cannot run as specified."""


class IncompatibleArchitectureError(CompatibilityError):
    """Image ISA does not match the node ISA (exec format error)."""


class RuntimeNotInstalledError(CompatibilityError):
    """The requested container runtime is not deployed on the cluster."""


def check_architecture(image: AnyImage, cluster: "ClusterSpec") -> None:
    """Raise unless the image's ISA matches the cluster's."""
    if image.arch is not cluster.node.arch:
        raise IncompatibleArchitectureError(
            f"image {image.name!r} is {image.arch.value}, but "
            f"{cluster.name} nodes are {cluster.node.arch.value} "
            "(cannot execute; rebuild the image for this architecture)"
        )


def check_runtime_installed(runtime_name: str, cluster: "ClusterSpec") -> None:
    """Raise unless ``runtime_name`` is available on ``cluster``."""
    if runtime_name.lower() == "bare-metal":
        return
    if not cluster.supports_runtime(runtime_name):
        raise RuntimeNotInstalledError(
            f"{runtime_name} is not installed on {cluster.name} "
            f"(available: {sorted(cluster.installed_runtimes)})"
        )


def check_admin_for_daemon(runtime_name: str, cluster: "ClusterSpec") -> None:
    """Docker's root daemon requires administrative rights (§A)."""
    if runtime_name.lower() == "docker" and not cluster.admin_rights:
        raise CompatibilityError(
            f"Docker needs a root-owned daemon; no admin rights on "
            f"{cluster.name}"
        )
