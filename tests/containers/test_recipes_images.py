"""Tests for recipes, image formats, and the builder."""

import pytest

from repro.containers.builder import ImageBuilder
from repro.containers.image import (
    GZIP_RATIO,
    SQUASHFS_RATIO,
    FlatImage,
    ImageFormat,
    Layer,
    OCIImage,
    SIFImage,
)
from repro.containers.recipes import BuildTechnique, ContainerRecipe, alya_recipe
from repro.hardware.cpu import Architecture
from repro.oskernel.vfs import FileSystem


# ------------------------------- recipes ------------------------------------


def test_alya_recipe_self_contained_bundles_mpi():
    r = alya_recipe(BuildTechnique.SELF_CONTAINED)
    names = {p.name for p in r.resolved_packages()}
    assert "openmpi-generic" in names


def test_alya_recipe_system_specific_omits_mpi():
    r = alya_recipe(BuildTechnique.SYSTEM_SPECIFIC)
    names = {p.name for p in r.resolved_packages()}
    assert not any(n.startswith("openmpi") for n in names)


def test_self_contained_is_bigger():
    sc = alya_recipe(BuildTechnique.SELF_CONTAINED)
    ss = alya_recipe(BuildTechnique.SYSTEM_SPECIFIC)
    assert sc.content_size() > ss.content_size()


def test_recipe_per_arch_sizes_differ():
    x86 = alya_recipe(BuildTechnique.SELF_CONTAINED, Architecture.X86_64)
    ppc = alya_recipe(BuildTechnique.SELF_CONTAINED, Architecture.PPC64LE)
    assert ppc.content_size() != x86.content_size()


def test_self_contained_requires_mpi():
    with pytest.raises(ValueError, match="must bundle an MPI"):
        ContainerRecipe(
            name="bad",
            base="centos7-base",
            packages=("alya",),
            technique=BuildTechnique.SELF_CONTAINED,
            arch=Architecture.X86_64,
        )


def test_recipe_unknown_base():
    with pytest.raises(KeyError):
        ContainerRecipe(
            name="bad",
            base="gentoo-base",
            packages=(),
            technique=BuildTechnique.SYSTEM_SPECIFIC,
            arch=Architecture.X86_64,
        )


def test_recipe_without_testdata_smaller():
    full = alya_recipe(BuildTechnique.SYSTEM_SPECIFIC, with_testdata=True)
    lean = alya_recipe(BuildTechnique.SYSTEM_SPECIFIC, with_testdata=False)
    assert lean.content_size() < full.content_size()


# ------------------------------- images -------------------------------------


def _layer(name, nbytes):
    fs = FileSystem(name)
    fs.write_file(f"/{name}/blob", nbytes, parents=True)
    return Layer(name, fs, nbytes, nbytes * GZIP_RATIO)


def test_oci_sizes():
    img = OCIImage(
        name="t",
        arch=Architecture.X86_64,
        technique=BuildTechnique.SELF_CONTAINED,
        layers=(_layer("a", 100.0), _layer("b", 50.0)),
    )
    assert img.content_size == 150.0
    assert img.size_bytes == 150.0
    assert img.transfer_size == pytest.approx(150.0 * GZIP_RATIO)
    assert img.format is ImageFormat.OCI_LAYERS


def test_oci_layer_order_topmost_first():
    img = OCIImage(
        name="t",
        arch=Architecture.X86_64,
        technique=BuildTechnique.SELF_CONTAINED,
        layers=(_layer("base", 10.0), _layer("payload", 10.0)),
    )
    assert [t.label for t in img.layer_trees()] == ["payload", "base"]


def test_oci_requires_layers():
    with pytest.raises(ValueError):
        OCIImage(
            name="t",
            arch=Architecture.X86_64,
            technique=BuildTechnique.SELF_CONTAINED,
            layers=(),
        )


def test_sif_compression():
    fs = FileSystem("sif")
    fs.write_file("/x", 1000.0)
    img = SIFImage(
        name="t",
        arch=Architecture.X86_64,
        technique=BuildTechnique.SELF_CONTAINED,
        tree=fs,
        content_bytes=1000.0,
    )
    assert img.size_bytes == pytest.approx(1000.0 * SQUASHFS_RATIO)
    assert img.transfer_size == img.size_bytes
    assert img.format is ImageFormat.SIF_SQUASHFS


def test_flat_image_fields():
    fs = FileSystem("flat")
    img = FlatImage(
        name="t",
        arch=Architecture.AARCH64,
        technique=BuildTechnique.SELF_CONTAINED,
        tree=fs,
        content_bytes=500.0,
        source_digest="sha256:abc",
    )
    assert img.size_bytes == pytest.approx(500.0 * SQUASHFS_RATIO)
    assert img.format is ImageFormat.SHIFTER_FLAT


def test_image_validation():
    with pytest.raises(ValueError):
        SIFImage(
            name="t",
            arch=Architecture.X86_64,
            technique=BuildTechnique.SELF_CONTAINED,
            tree=None,
        )
    with pytest.raises(ValueError):
        Layer("l", FileSystem(), -1, 0)


# ------------------------------- builder -------------------------------------


def test_builder_oci_vs_sif_size_relation():
    """Key §B.1 shape: for identical content, the extracted Docker image is
    larger than the squashfs SIF, and the SIF is smaller than the content."""
    r = alya_recipe(BuildTechnique.SELF_CONTAINED)
    b = ImageBuilder()
    oci = b.build_oci(r).image
    sif = b.build_sif(r).image
    assert oci.size_bytes > sif.size_bytes
    assert sif.size_bytes < r.content_size()
    # Layering duplicates a sliver of the base layer.
    assert oci.content_size > r.content_size()


def test_builder_trees_contain_app():
    r = alya_recipe(BuildTechnique.SELF_CONTAINED)
    b = ImageBuilder()
    sif = b.build_sif(r).image
    assert sif.tree.exists("/opt/alya/bin/alya")
    assert sif.tree.exists("/opt/openmpi-generic/lib/libopenmpi-generic.so")
    oci = b.build_oci(r).image
    payload = oci.layers[1].tree
    assert payload.exists("/opt/alya/bin/alya")


def test_builder_reports_positive_build_time():
    r = alya_recipe(BuildTechnique.SELF_CONTAINED)
    b = ImageBuilder()
    assert b.build_oci(r).build_seconds > 0
    assert b.build_sif(r).build_seconds > 0


def test_builder_oci_has_three_layers():
    r = alya_recipe(BuildTechnique.SYSTEM_SPECIFIC)
    oci = ImageBuilder().build_oci(r).image
    assert [l.name for l in oci.layers] == ["base", "payload", "config"]
