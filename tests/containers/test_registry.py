"""Tests for the registry and the Shifter image gateway."""

import pytest

from repro.containers.builder import ImageBuilder
from repro.containers.recipes import BuildTechnique, alya_recipe
from repro.containers.registry import Registry, RegistryError, ShifterGateway
from repro.des import Environment


@pytest.fixture
def oci():
    return ImageBuilder().build_oci(alya_recipe(BuildTechnique.SELF_CONTAINED)).image


def test_push_get_contains(oci):
    env = Environment()
    reg = Registry(env)
    assert oci.name not in reg
    reg.push(oci)
    assert oci.name in reg
    assert reg.get(oci.name) is oci


def test_get_missing_raises():
    env = Environment()
    reg = Registry(env)
    with pytest.raises(RegistryError):
        reg.get("ghost")


def test_pull_time_matches_transfer_size(oci):
    env = Environment()
    reg = Registry(env, egress_bandwidth=100e6, latency=0.25)
    reg.push(oci)
    done = {}

    def proc():
        yield reg.pull(oci.name)
        done["t"] = env.now

    env.process(proc())
    env.run()
    expected = 0.25 + oci.transfer_size / 100e6
    assert done["t"] == pytest.approx(expected, rel=1e-6)


def test_concurrent_pulls_contend(oci):
    """n nodes pulling together share the egress: the §B.1 deployment
    scaling difference between Docker and Singularity."""
    def total_time(n):
        env = Environment()
        reg = Registry(env, egress_bandwidth=100e6, latency=0.0)
        reg.push(oci)
        ends = []

        def proc():
            yield reg.pull(oci.name)
            ends.append(env.now)

        for _ in range(n):
            env.process(proc())
        env.run()
        return max(ends)

    t1, t4 = total_time(1), total_time(4)
    assert t4 == pytest.approx(4 * t1, rel=1e-6)


def test_gateway_converts_and_caches(oci):
    env = Environment()
    reg = Registry(env, egress_bandwidth=1e9)
    reg.push(oci)
    gw = ShifterGateway(env, reg)
    assert not gw.is_cached(oci)

    results = {}

    def convert_once(tag):
        flat = yield env.process(gw.convert(oci))
        results[tag] = (flat, env.now)

    env.process(convert_once("first"))
    env.run()
    assert gw.conversions == 1
    assert gw.is_cached(oci)
    flat1, t1 = results["first"]
    assert t1 > 0  # pull + flatten took time

    env.process(convert_once("second"))
    env.run()
    flat2, t2 = results["second"]
    assert flat2 is flat1  # cached object
    assert t2 == pytest.approx(t1)  # no additional time
    assert gw.conversions == 1


def test_gateway_flat_image_deduplicates_layers(oci):
    env = Environment()
    reg = Registry(env, egress_bandwidth=1e9)
    reg.push(oci)
    gw = ShifterGateway(env, reg)
    holder = {}

    def proc():
        holder["flat"] = yield env.process(gw.convert(oci))

    env.process(proc())
    env.run()
    flat = holder["flat"]
    # Flattening removes inter-layer duplication: content <= layered sum.
    assert flat.content_bytes <= oci.content_size
    assert flat.content_bytes > 0
    assert flat.source_digest == oci.digest


def test_gateway_cached_lookup_api(oci):
    env = Environment()
    reg = Registry(env, egress_bandwidth=1e9)
    reg.push(oci)
    gw = ShifterGateway(env, reg)
    with pytest.raises(RegistryError):
        gw.cached(oci)

    def proc():
        yield env.process(gw.convert(oci))

    env.process(proc())
    env.run()
    assert gw.cached(oci).name == oci.name
