"""Deployment plumbing: runtimes, images, registries for one experiment."""

from __future__ import annotations

from typing import Optional

from repro.containers.baremetal import BareMetalRuntime
from repro.containers.builder import ImageBuilder
from repro.containers.charliecloud import CharliecloudRuntime
from repro.containers.docker import DockerRuntime
from repro.containers.image import AnyImage, OCIImage
from repro.containers.recipes import ContainerRecipe, alya_recipe
from repro.containers.registry import Registry, ShifterGateway
from repro.containers.runtime import ContainerRuntime
from repro.containers.shifter import ShifterRuntime
from repro.containers.singularity import SingularityRuntime
from repro.core.experiment import ExperimentSpec
from repro.des.engine import Environment

_RUNTIME_CLASSES = {
    "bare-metal": BareMetalRuntime,
    "charliecloud": CharliecloudRuntime,
    "docker": DockerRuntime,
    "singularity": SingularityRuntime,
    "shifter": ShifterRuntime,
}


def runtime_class(name: str) -> type[ContainerRuntime]:
    """The runtime class registered under ``name`` (case-insensitive)."""
    try:
        return _RUNTIME_CLASSES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown runtime {name!r}") from None


def make_runtime(spec: ExperimentSpec) -> ContainerRuntime:
    """Instantiate the runtime named by the spec (with its site version)."""
    cls = runtime_class(spec.runtime_name)
    version = spec.cluster.installed_runtimes.get(cls.name)
    if cls is DockerRuntime:
        return cls(version, host_network=spec.docker_host_network)
    return cls(version)


def image_for(
    runtime_cls: type[ContainerRuntime], recipe: ContainerRecipe
) -> AnyImage:
    """Build ``recipe`` in the format ``runtime_cls`` deploys."""
    builder = ImageBuilder()
    if runtime_cls.image_type is OCIImage:
        return builder.build_oci(recipe).image
    return builder.build_sif(recipe).image


def build_image(spec: ExperimentSpec) -> Optional[AnyImage]:
    """Build the image this experiment runs (None for bare-metal).

    The format is the runtime's :attr:`~ContainerRuntime.image_type`.
    The image is always built for the cluster's ISA — the §B.2
    rebuild-per-machine workflow (an x86 image simply cannot execute
    elsewhere; see :mod:`repro.containers.compat`).
    """
    if spec.is_bare_metal:
        return None
    return image_for(
        runtime_class(spec.runtime_name),
        alya_recipe(spec.technique, arch=spec.cluster.node.arch),
    )


def make_distribution(
    env: Environment, image: Optional[AnyImage]
) -> tuple[Registry, ShifterGateway]:
    """A registry (+Shifter gateway) with the experiment's image pushed."""
    registry = Registry(env)
    gateway = ShifterGateway(env, registry)
    if image is not None:
        registry.push(image)
    return registry, gateway
