"""Concrete image formats.

Three on-disk representations, matching the runtimes' storage models:

- :class:`OCIImage` — Docker: an ordered stack of tar layers, stored and
  transferred gzip-compressed, *extracted* on every node before use;
- :class:`SIFImage` — Singularity: one squashfs file, loop-mounted
  directly (no extraction), ~55% smaller than the content;
- :class:`FlatImage` — Shifter: the gateway flattens an OCI image once
  into a single loop-mountable file.

Image size (§B.1) therefore differs by format for identical content,
and deployment cost differs structurally (extract-per-node vs.
mount-in-place).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.containers.recipes import BuildTechnique
from repro.hardware.cpu import Architecture
from repro.oskernel.vfs import FileSystem

#: gzip ratio for typical binary layers (observed on CentOS-era images).
GZIP_RATIO = 0.42
#: squashfs (gzip block) ratio; slightly worse than stream gzip.
SQUASHFS_RATIO = 0.45


class ImageFormat(enum.Enum):
    """On-disk representation of a container image."""

    OCI_LAYERS = "oci-layers"
    SIF_SQUASHFS = "sif-squashfs"
    SHIFTER_FLAT = "shifter-flat"


@dataclass(frozen=True)
class Layer:
    """One OCI layer: a filesystem delta plus its stored sizes."""

    name: str
    tree: FileSystem
    content_bytes: float
    compressed_bytes: float

    def __post_init__(self) -> None:
        if self.content_bytes < 0 or self.compressed_bytes < 0:
            raise ValueError("layer sizes must be >= 0")


@dataclass(frozen=True)
class _ImageBase:
    """Fields common to every image format."""

    name: str
    arch: Architecture
    technique: BuildTechnique
    env: Mapping[str, str] = field(default_factory=dict, compare=False)
    entrypoint: str = field(default="/bin/sh", compare=False)


@dataclass(frozen=True)
class OCIImage(_ImageBase):
    """A Docker (OCI) image: ordered layers, pulled compressed."""

    layers: Sequence[Layer] = ()
    format: ImageFormat = ImageFormat.OCI_LAYERS

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("an OCI image needs at least one layer")

    @property
    def content_size(self) -> float:
        """Uncompressed content across layers (duplicates included)."""
        return sum(l.content_bytes for l in self.layers)

    @property
    def size_bytes(self) -> float:
        """On-disk size once extracted on a node (layer store)."""
        return self.content_size

    @property
    def transfer_size(self) -> float:
        """Bytes moved on a registry pull (compressed layers)."""
        return sum(l.compressed_bytes for l in self.layers)

    def layer_trees(self) -> list[FileSystem]:
        """Layer filesystems, *top-most first* (overlay lowerdir order)."""
        return [l.tree for l in reversed(self.layers)]

    @property
    def digest(self) -> str:
        """Stable content identifier."""
        return f"sha256:{abs(hash((self.name, self.arch.value, len(self.layers)))):x}"


@dataclass(frozen=True)
class SIFImage(_ImageBase):
    """A Singularity SIF image: one compressed squashfs partition."""

    content_bytes: float = 0.0
    format: ImageFormat = ImageFormat.SIF_SQUASHFS

    def __post_init__(self) -> None:
        if self.content_bytes < 0:
            raise ValueError("content_bytes must be >= 0")

    @property
    def size_bytes(self) -> float:
        """On-disk size of the single SIF file (compressed squashfs)."""
        return self.content_bytes * SQUASHFS_RATIO

    @property
    def transfer_size(self) -> float:
        """A SIF moves as-is: one compressed file."""
        return self.size_bytes


@dataclass(frozen=True)
class FlatImage(_ImageBase):
    """A Shifter gateway product: flattened, loop-mountable image."""

    content_bytes: float = 0.0
    source_digest: str = ""
    format: ImageFormat = ImageFormat.SHIFTER_FLAT

    def __post_init__(self) -> None:
        if self.content_bytes < 0:
            raise ValueError("content_bytes must be >= 0")

    @property
    def size_bytes(self) -> float:
        """Flattened squashfs: duplicates across layers are gone."""
        return self.content_bytes * SQUASHFS_RATIO

    @property
    def transfer_size(self) -> float:
        return self.size_bytes


AnyImage = OCIImage | SIFImage | FlatImage
