"""Tests for fabric path parameters — the portability mechanism."""

import pytest

from repro.hardware.network import (
    FORTY_GIG_ETHERNET,
    GIGABIT_ETHERNET,
    INFINIBAND_EDR,
    OMNIPATH_100,
    FabricKind,
    FabricSpec,
    NetworkPath,
    PathParams,
)


def test_native_path_returns_native_numbers():
    p = INFINIBAND_EDR.path_params(NetworkPath.HOST_NATIVE)
    assert p.latency == pytest.approx(1.0e-6)
    assert p.bandwidth == pytest.approx(12.5e9)
    assert p.per_byte_overhead == 1.0


def test_tcp_fallback_degrades_fast_fabrics():
    """Self-contained containers lose the fast fabric (paper Fig. 2)."""
    for fabric in (INFINIBAND_EDR, OMNIPATH_100):
        native = fabric.path_params(NetworkPath.HOST_NATIVE)
        fallback = fabric.path_params(NetworkPath.TCP_FALLBACK)
        assert fallback.latency > 10 * native.latency
        assert fallback.bandwidth < native.bandwidth / 2


def test_tcp_fabric_fallback_is_nearly_native():
    """On plain-TCP clusters a self-contained image loses almost nothing —
    why Lenox (1GbE) shows Singularity == bare-metal in Fig. 1."""
    native = GIGABIT_ETHERNET.path_params(NetworkPath.HOST_NATIVE)
    fallback = GIGABIT_ETHERNET.path_params(NetworkPath.TCP_FALLBACK)
    assert fallback.latency == native.latency
    assert fallback.bandwidth == native.bandwidth
    assert fallback.per_byte_overhead <= 1.05


def test_bridge_path_adds_latency_and_overhead():
    """Docker's bridge+NAT path is strictly worse than in-container TCP."""
    for fabric in (GIGABIT_ETHERNET, FORTY_GIG_ETHERNET, INFINIBAND_EDR):
        tcp = fabric.path_params(NetworkPath.TCP_FALLBACK)
        bridge = fabric.path_params(NetworkPath.BRIDGE_NAT)
        assert bridge.latency > tcp.latency
        assert bridge.bandwidth <= tcp.bandwidth
        assert bridge.per_byte_overhead > tcp.per_byte_overhead


def test_bridge_caps_fast_tcp_bandwidth():
    """The software switch, not the 40GbE NIC, limits Docker throughput."""
    bridge = FORTY_GIG_ETHERNET.path_params(NetworkPath.BRIDGE_NAT)
    assert bridge.bandwidth < FORTY_GIG_ETHERNET.bandwidth


def test_bridge_does_not_cap_slow_nic():
    """On 1GbE the wire is the bottleneck, not the bridge."""
    bridge = GIGABIT_ETHERNET.path_params(NetworkPath.BRIDGE_NAT)
    assert bridge.bandwidth == pytest.approx(GIGABIT_ETHERNET.bandwidth)


def test_fast_fabric_requires_fallback_params():
    with pytest.raises(ValueError):
        FabricSpec(
            name="bad",
            kind=FabricKind.INFINIBAND,
            bandwidth=1e9,
            latency=1e-6,
            needs_host_stack=True,
        )


@pytest.mark.parametrize(
    "kwargs",
    [{"latency": -1, "bandwidth": 1e9}, {"latency": 0, "bandwidth": 0},
     {"latency": 0, "bandwidth": 1e9, "per_byte_overhead": 0.9}],
)
def test_path_params_validation(kwargs):
    with pytest.raises(ValueError):
        PathParams(**kwargs)
