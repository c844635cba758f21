"""Docker's per-node bridge FIFO and the cluster's cached routes."""

import pytest

from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import BridgeFifo, Cluster
from repro.hardware.network import NetworkPath
from repro.hardware.topology import SwitchTopology


def _holder(env, fifo, tag, hold, log):
    """A process that holds the FIFO for ``hold`` seconds."""
    grant = env.event()
    grant._value = None  # armed by the FIFO, like a delivery chain's timer
    fifo.acquire(grant)
    yield grant
    log.append((tag, env.now))
    yield env.timeout(hold)
    fifo.release()


def test_bridge_fifo_grants_one_holder_at_a_time():
    env = Environment()
    fifo = BridgeFifo(env)
    grants = []
    for tag in "abc":
        env.process(_holder(env, fifo, tag, 5, grants))
    env.run()
    assert grants == [("a", 0.0), ("b", 5.0), ("c", 10.0)]
    assert not fifo.busy


def test_bridge_fifo_queue_is_fifo():
    env = Environment()
    fifo = BridgeFifo(env)
    order = []

    def staged():
        for tag in ("first", "second", "third"):
            env.process(_holder(env, fifo, tag, 1, order))
            yield env.timeout(0.1)

    env.process(staged())
    env.run()
    assert [tag for tag, _ in order] == ["first", "second", "third"]
    assert [t for _, t in order] == [0.0, 1.0, 2.0]


def test_bridge_fifo_release_when_idle_is_rejected():
    with pytest.raises(RuntimeError):
        BridgeFifo(Environment()).release()


@pytest.mark.parametrize(
    "path,bridged",
    [(NetworkPath.BRIDGE_NAT, True), (NetworkPath.TCP_FALLBACK, False)],
)
def test_only_the_bridge_path_wires_fifos(path, bridged):
    cluster = Cluster(Environment(), catalog.LENOX, num_nodes=2)
    cluster.wire_network(path)
    assert all((n.bridge is not None) is bridged for n in cluster.nodes)


def test_routes_follow_the_wiring():
    env = Environment()
    cluster = Cluster(env, catalog.LENOX, num_nodes=3)
    cluster.wire_network(
        NetworkPath.TCP_FALLBACK, topology=SwitchTopology(2, 2.0)
    )
    n0, n1, n2 = cluster.nodes
    assert cluster.route(1, 1) == (n1.shm,)
    assert cluster.route(0, 1) == (n0.nic_tx, n1.nic_rx)
    across = cluster.route(1, 2)
    assert across[:2] == (n1.nic_tx, n2.nic_rx)
    assert [ln.name for ln in across[2:]] == ["uplink-up[0]", "uplink-dn[1]"]
    assert cluster.route(0, 1) is cluster.route(0, 1)  # cached
    # Rewiring replaces the NICs; the cache must not hand out old ones.
    cluster.wire_network(NetworkPath.TCP_FALLBACK)
    assert cluster.route(0, 1) == (n0.nic_tx, n1.nic_rx)
    assert len(cluster.route(1, 2)) == 2
