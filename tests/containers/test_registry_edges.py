"""Additional registry/gateway/builder edge cases."""

import pytest

from repro.containers.builder import ImageBuilder
from repro.containers.recipes import BuildTechnique, alya_recipe
from repro.containers.registry import Registry, ShifterGateway
from repro.des import Environment
from repro.hardware.cpu import Architecture


def test_registry_serves_sif_images():
    """SIF files can be distributed through the registry too (library://
    style): one compressed blob."""
    env = Environment()
    reg = Registry(env, egress_bandwidth=100e6, latency=0.0)
    sif = ImageBuilder().build_sif(
        alya_recipe(BuildTechnique.SELF_CONTAINED)
    ).image
    reg.push(sif)
    done = {}

    def proc():
        yield reg.pull(sif.name)
        done["t"] = env.now

    env.process(proc())
    env.run()
    assert done["t"] == pytest.approx(sif.transfer_size / 100e6, rel=1e-6)


def test_gateway_distinct_images_convert_separately():
    env = Environment()
    reg = Registry(env, egress_bandwidth=1e9)
    gw = ShifterGateway(env, reg)
    b = ImageBuilder()
    img_a = b.build_oci(alya_recipe(BuildTechnique.SELF_CONTAINED)).image
    img_b = b.build_oci(alya_recipe(BuildTechnique.SYSTEM_SPECIFIC)).image
    reg.push(img_a)
    reg.push(img_b)

    def proc():
        yield env.process(gw.convert(img_a))
        yield env.process(gw.convert(img_b))
        yield env.process(gw.convert(img_a))  # cached

    env.process(proc())
    env.run()
    assert gw.conversions == 2
    assert gw.cached(img_a).name != gw.cached(img_b).name


def test_per_arch_images_have_distinct_digests():
    b = ImageBuilder()
    x86 = b.build_oci(
        alya_recipe(BuildTechnique.SELF_CONTAINED, Architecture.X86_64)
    ).image
    arm = b.build_oci(
        alya_recipe(BuildTechnique.SELF_CONTAINED, Architecture.AARCH64)
    ).image
    assert x86.digest != arm.digest


def test_oci_flatten_preserves_visible_files():
    """Gateway flattening keeps exactly the union view of the layers."""
    env = Environment()
    reg = Registry(env, egress_bandwidth=1e9)
    gw = ShifterGateway(env, reg)
    oci = ImageBuilder().build_oci(
        alya_recipe(BuildTechnique.SELF_CONTAINED)
    ).image
    reg.push(oci)
    holder = {}

    def proc():
        holder["flat"] = yield env.process(gw.convert(oci))

    env.process(proc())
    env.run()
    flat = holder["flat"]
    visible = {}
    for layer in oci.layers:  # bottom-up: an upper copy replaces a lower one
        for path, f in layer.tree.walk_files("/"):
            visible[path] = f.size
    assert flat.content_bytes == pytest.approx(sum(visible.values()))
