"""Container build recipes and the two build techniques of §B.2.

A recipe is the declarative input to the :class:`~repro.containers.builder.
ImageBuilder` — the analogue of a Dockerfile / Singularity definition file.
The paper contrasts:

- **SYSTEM_SPECIFIC** — the image is built for one cluster: the host's
  MPI and fabric userspace are *not* packaged but bind-mounted at run
  time, so the containerised application links against the host stack and
  can drive the fast fabric.  Portability is sacrificed.
- **SELF_CONTAINED** — a generic MPI (TCP only) and everything else is
  bundled; the image runs anywhere with a matching ISA, but traffic falls
  back to TCP on fabrics that need host userspace (Figs. 2–3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.containers.packages import PACKAGE_DB, Package, resolve_dependencies
from repro.hardware.cpu import Architecture


class BuildTechnique(enum.Enum):
    """How the image relates to the host software stack."""

    SYSTEM_SPECIFIC = "system-specific"
    SELF_CONTAINED = "self-contained"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ContainerRecipe:
    """Declarative image description.

    Attributes
    ----------
    name:
        Image name, e.g. ``"alya-artery"``.
    base:
        OS base package name (one layer).
    packages:
        Payload package names (beyond the base).
    technique:
        System-specific or self-contained (see module docstring).
    arch:
        Target ISA — images must be (re)built per architecture; running a
        mismatched image is impossible, which is exactly what the
        portability study exercises.
    env / entrypoint:
        Image configuration (metadata only).
    """

    name: str
    base: str
    packages: tuple[str, ...]
    technique: BuildTechnique
    arch: Architecture
    env: Mapping[str, str] = field(default_factory=dict)
    entrypoint: str = "/opt/alya/bin/alya"

    def __post_init__(self) -> None:
        if self.base not in PACKAGE_DB:
            raise KeyError(f"unknown base package {self.base!r}")
        # Validate early: unknown names or cycles fail at recipe creation.
        resolve_dependencies((self.base, *self.packages))
        if self.technique is BuildTechnique.SELF_CONTAINED:
            if not any(
                PACKAGE_DB[p].provides_mpi
                for p in self._closure_names()
            ):
                raise ValueError(
                    "a self-contained recipe must bundle an MPI implementation"
                )

    def _closure_names(self) -> set[str]:
        return {
            p.name
            for p in resolve_dependencies((self.base, *self.packages))
        }

    def resolved_packages(self) -> list[Package]:
        """Dependency closure of base + payload, install order."""
        return resolve_dependencies((self.base, *self.packages))

    def content_size(self) -> float:
        """Uncompressed content bytes on the target architecture."""
        return sum(p.size_on(self.arch) for p in self.resolved_packages())


def alya_recipe(
    technique: BuildTechnique,
    arch: Architecture = Architecture.X86_64,
    with_testdata: bool = True,
) -> ContainerRecipe:
    """The paper's Alya artery image, in either build technique.

    The system-specific variant leaves MPI and fabric userspace out of the
    image (they are bind-mounted from the host); the self-contained one
    bundles a generic TCP-only OpenMPI.
    """
    payload = ["alya"]
    if with_testdata:
        payload.append("alya-testdata")
    if technique is BuildTechnique.SELF_CONTAINED:
        payload.append("openmpi-generic")
    return ContainerRecipe(
        name=f"alya-artery-{technique.value}-{arch.value}",
        base="centos7-base",
        packages=tuple(payload),
        technique=technique,
        arch=arch,
        env={"OMP_PROC_BIND": "true"},
    )
