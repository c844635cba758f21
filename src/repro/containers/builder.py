"""Image builder: recipes → concrete images.

Build output mirrors the real tools:

- ``build_oci`` (``docker build``) produces one layer per logical step
  (base, payload, configuration), so shared files can be duplicated across
  layers and the stored image is larger than the merged tree;
- ``build_sif`` (``singularity build``) produces a single squashfs of the
  merged tree;
- Shifter consumes OCI images through the gateway
  (:class:`repro.containers.registry.ShifterGateway`), not the builder.

Build *time* is modelled from package-install and mksquashfs throughputs,
and is reported, but the paper's §B.1 deployment metric starts at the
registry, so build time never enters experiment timings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.containers.image import (
    GZIP_RATIO,
    Layer,
    OCIImage,
    SIFImage,
)
from repro.containers.packages import Package
from repro.containers.recipes import ContainerRecipe
from repro.oskernel.vfs import FileSystem

#: Effective throughputs on a 2018-era build host, bytes/s.
INSTALL_THROUGHPUT = 90e6
MKSQUASHFS_THROUGHPUT = 160e6
TAR_GZIP_THROUGHPUT = 120e6


@dataclass(frozen=True)
class BuildResult:
    """An image plus how long it took to produce."""

    image: OCIImage | SIFImage
    build_seconds: float


def _install_package(tree: FileSystem, pkg: Package, arch) -> float:
    """Materialise ``pkg`` in ``tree``; returns bytes written.

    Files are split the way distro packages really are: most bytes in
    ``lib``, some in ``bin``, a sliver of metadata in ``share`` — enough
    structure for layer flattening and overlay copy-up to be observable.
    """
    size = pkg.size_on(arch)
    base = f"/opt/{pkg.name}"
    tree.write_file(f"{base}/lib/lib{pkg.name}.so", size * 0.72, parents=True)
    tree.write_file(f"{base}/bin/{pkg.name}", size * 0.23, parents=True)
    tree.write_file(f"{base}/share/doc/{pkg.name}.txt", size * 0.05, parents=True)
    return size


class ImageBuilder:
    """Builds recipes into images."""

    def build_oci(self, recipe: ContainerRecipe) -> BuildResult:
        """Docker-style build: base layer, payload layer, config layer."""
        pkgs = recipe.resolved_packages()
        base_pkgs = [p for p in pkgs if p.name == recipe.base]
        payload_pkgs = [p for p in pkgs if p.name != recipe.base]

        layers: list[Layer] = []
        total_written = 0.0

        base_tree = FileSystem(f"{recipe.name}:base")
        base_bytes = sum(
            _install_package(base_tree, p, recipe.arch) for p in base_pkgs
        )
        layers.append(
            Layer("base", base_tree, base_bytes, base_bytes * GZIP_RATIO)
        )
        total_written += base_bytes

        payload_tree = FileSystem(f"{recipe.name}:payload")
        payload_bytes = sum(
            _install_package(payload_tree, p, recipe.arch) for p in payload_pkgs
        )
        # Package managers touch shared metadata (ld cache, rpm/apt db):
        # a sliver of the base layer is rewritten and thus duplicated.
        dup = base_bytes * 0.04
        payload_tree.write_file("/var/lib/pkgdb/index", dup, parents=True)
        payload_bytes += dup
        layers.append(
            Layer("payload", payload_tree, payload_bytes, payload_bytes * GZIP_RATIO)
        )
        total_written += payload_bytes

        config_tree = FileSystem(f"{recipe.name}:config")
        config_bytes = 4096.0
        config_tree.write_file("/etc/container.env", config_bytes, parents=True)
        layers.append(
            Layer("config", config_tree, config_bytes, config_bytes * GZIP_RATIO)
        )
        total_written += config_bytes

        image = OCIImage(
            name=recipe.name,
            arch=recipe.arch,
            technique=recipe.technique,
            env=dict(recipe.env),
            entrypoint=recipe.entrypoint,
            layers=tuple(layers),
        )
        build_seconds = (
            total_written / INSTALL_THROUGHPUT
            + total_written / TAR_GZIP_THROUGHPUT
        )
        return BuildResult(image=image, build_seconds=build_seconds)

    def build_sif(self, recipe: ContainerRecipe) -> BuildResult:
        """Singularity-style build: merged tree, one squashfs.

        Every package and the 4 KiB environment file land once, so the
        content is their sum.
        """
        written = recipe.content_size() + 4096.0
        image = SIFImage(
            name=recipe.name,
            arch=recipe.arch,
            technique=recipe.technique,
            env=dict(recipe.env),
            entrypoint=recipe.entrypoint,
            content_bytes=written,
        )
        build_seconds = (
            written / INSTALL_THROUGHPUT + written / MKSQUASHFS_THROUGHPUT
        )
        return BuildResult(image=image, build_seconds=build_seconds)
