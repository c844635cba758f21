"""Tests for the per-node OS state a deployment reads."""

import pytest

from repro.hardware import catalog
from repro.oskernel.nodeos import NodeOS

#: Site -> whether its nodes carry host fabric userspace: Omni-Path and
#: InfiniBand need verbs/PSM2 libraries; the Ethernet sites do not.
FABRIC_USERSPACE = {
    "Lenox": False,
    "MareNostrum4": True,
    "CTE-POWER": True,
    "ThunderX": False,
}


@pytest.mark.parametrize("name", sorted(catalog.ALL_CLUSTERS))
def test_fabric_userspace_follows_site(name):
    spec = catalog.ALL_CLUSTERS[name]
    os_ = NodeOS(spec, 3)
    assert os_.node_id == 3
    assert os_.has_fabric_userspace is spec.fabric.needs_host_stack
    assert os_.has_fabric_userspace is FABRIC_USERSPACE[name]


def test_image_cache_starts_empty_and_is_per_node():
    a, b = NodeOS(catalog.LENOX, 0), NodeOS(catalog.LENOX, 1)
    assert a.image_cache == set() and b.image_cache == set()
    a.image_cache.add("sha256:abc")
    assert b.image_cache == set()
