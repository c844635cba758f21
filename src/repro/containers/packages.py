"""Software package database for image-content modelling.

Image size — one of the §B.1 metrics — is the sum of what a recipe
installs.  The database lists the packages an Alya-like CFD stack needs,
with installed sizes (bytes) and dependencies.  Sizes follow the published
package sizes of CentOS/Ubuntu-era 2018 builds; per-architecture variation
is a few percent and is modelled with a factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.hardware.cpu import Architecture

MB = 1_000_000.0


@dataclass(frozen=True)
class Package:
    """An installable unit.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"openmpi"``.
    size:
        Installed size in bytes on x86-64.
    deps:
        Names of packages that must also be installed.
    arch_factor:
        Per-architecture size multipliers (default 1.0).
    provides_mpi / provides_fabric:
        Capability flags used by the build-technique logic: a
        *system-specific* image omits fabric userspace (bound from the
        host); a *self-contained* image must bundle an MPI.
    """

    name: str
    size: float
    deps: tuple[str, ...] = ()
    arch_factor: Mapping[Architecture, float] = field(default_factory=dict)
    provides_mpi: bool = False
    provides_fabric: bool = False

    def size_on(self, arch: Architecture) -> float:
        """Installed size on ``arch``."""
        return self.size * self.arch_factor.get(arch, 1.0)


def _pkg(name: str, size_mb: float, *deps: str, **flags) -> Package:
    return Package(name=name, size=size_mb * MB, deps=tuple(deps), **flags)


#: The catalogue.  Grouped: OS bases, toolchain, MPI stacks, fabric
#: userspace, numerics, and the application itself.
PACKAGE_DB: dict[str, Package] = {
    p.name: p
    for p in [
        # -- OS bases ---------------------------------------------------------
        _pkg("centos7-base", 204.0),
        _pkg("ubuntu16.04-base", 122.0),
        # -- toolchain ----------------------------------------------------------
        _pkg("glibc-runtime", 32.0),
        _pkg("gcc-gfortran-runtime", 78.0, "glibc-runtime"),
        _pkg("build-tools", 310.0, "gcc-gfortran-runtime"),
        # -- MPI stacks ----------------------------------------------------------
        # Generic OpenMPI built without fabric support: TCP BTL only.
        _pkg("openmpi-generic", 64.0, "gcc-gfortran-runtime", provides_mpi=True),
        # Host-matched MPI built against PSM2/verbs (bind-mounted in
        # system-specific deployments, installed in host images).
        _pkg(
            "openmpi-fabric",
            88.0,
            "gcc-gfortran-runtime",
            provides_mpi=True,
            provides_fabric=True,
        ),
        _pkg("impi-runtime", 460.0, "glibc-runtime", provides_mpi=True,
             provides_fabric=True),
        # -- fabric userspace ----------------------------------------------------
        _pkg("libpsm2", 2.4, provides_fabric=True),
        _pkg("rdma-core", 11.0, provides_fabric=True),
        # -- numerics -------------------------------------------------------------
        _pkg("openblas", 34.0, "gcc-gfortran-runtime"),
        _pkg("metis", 4.6),
        _pkg("hdf5", 48.0, "glibc-runtime"),
        # -- the application -------------------------------------------------------
        _pkg(
            "alya",
            152.0,
            "gcc-gfortran-runtime",
            "openblas",
            "metis",
            "hdf5",
            arch_factor={
                Architecture.PPC64LE: 1.06,
                Architecture.AARCH64: 0.97,
            },
        ),
        _pkg("alya-testdata", 480.0),
    ]
}


def resolve_dependencies(
    names: Iterable[str], db: Mapping[str, Package] = PACKAGE_DB
) -> list[Package]:
    """Transitive dependency closure, in deterministic install order.

    Raises ``KeyError`` for unknown package names and detects cycles.
    """
    resolved: list[Package] = []
    seen: set[str] = set()
    visiting: set[str] = set()

    def visit(name: str) -> None:
        if name in seen:
            return
        if name in visiting:
            raise ValueError(f"dependency cycle through {name!r}")
        if name not in db:
            raise KeyError(f"unknown package {name!r}")
        visiting.add(name)
        for dep in db[name].deps:
            visit(dep)
        visiting.discard(name)
        seen.add(name)
        resolved.append(db[name])

    for name in sorted(set(names)):
        visit(name)
    return resolved
