"""Container images, registries, and the four execution modes.

The subpackage models the complete container lifecycle the paper measures:

- **recipes** (:mod:`repro.containers.recipes`): what goes *into* an image,
  including the paper's two build techniques — *system-specific* (host MPI
  and fabric libraries bound in at run time) and *self-contained*
  (generic TCP MPI bundled);
- **building** (:mod:`repro.containers.builder`): recipes to concrete
  image formats — Docker's OCI layer stack, Singularity's squashfs SIF,
  Shifter's gateway-flattened image;
- **distribution** (:mod:`repro.containers.registry`): registry pulls and
  Shifter's image-gateway conversion;
- **execution** (:mod:`repro.containers.docker` / ``singularity`` /
  ``shifter`` / ``baremetal``): each runtime declares the namespace kinds
  it unshares (:mod:`repro.oskernel.namespaces`); that declaration sets
  both its deployment timeline's namespace cost and the network path its
  MPI traffic takes.
"""

from repro.containers.packages import PACKAGE_DB, Package, resolve_dependencies
from repro.containers.recipes import BuildTechnique, ContainerRecipe, alya_recipe
from repro.containers.image import (
    FlatImage,
    ImageFormat,
    Layer,
    OCIImage,
    SIFImage,
)
from repro.containers.builder import ImageBuilder
from repro.containers.registry import Registry, ShifterGateway
from repro.containers.runtime import ContainerRuntime, DeployedContainer, DeploymentReport
from repro.containers.compat import (
    CompatibilityError,
    IncompatibleArchitectureError,
    RuntimeNotInstalledError,
)
from repro.containers.baremetal import BareMetalRuntime
from repro.containers.docker import DockerRuntime
from repro.containers.singularity import SingularityRuntime
from repro.containers.shifter import ShifterRuntime

__all__ = [
    "BareMetalRuntime",
    "BuildTechnique",
    "CompatibilityError",
    "ContainerRecipe",
    "ContainerRuntime",
    "DeployedContainer",
    "DeploymentReport",
    "DockerRuntime",
    "FlatImage",
    "ImageBuilder",
    "ImageFormat",
    "IncompatibleArchitectureError",
    "Layer",
    "OCIImage",
    "PACKAGE_DB",
    "Package",
    "Registry",
    "RuntimeNotInstalledError",
    "SIFImage",
    "ShifterGateway",
    "ShifterRuntime",
    "SingularityRuntime",
    "alya_recipe",
    "resolve_dependencies",
]
