"""Literal pin of the message delivery chain, end to end.

One SHA-256 per case over what a run of the chain produces: the
:class:`ExperimentResult` JSON, the ``trace_digest`` of a traced run and
``events_executed`` of a traced and an untraced run (the untraced one
dispatches through the hook-free event loop).  The cases cover every
delivery variant the chain has:

- bare-metal, Singularity, Docker (the bridged path, with its per-node
  softirq FIFOs) and Docker with ``--net=host``;
- RANK and NODE endpoint granularity;
- a flat fabric and a :class:`SwitchTopology` whose uplinks some flows
  cross and some do not;
- no fault plan, a NIC link-partition plan (frozen flows), and on Docker
  a node crash with requeue, whose relaunched communicator shares the
  nodes' bridge FIFOs with the crashed attempt's draining chains.

A second group drives :class:`SimComm` directly with zero-byte, eager,
exactly-at-threshold and above-rendezvous messages, wildcard receives,
exchanges and an allreduce, on the native, TCP and bridged paths, with
and without uplinks, and with a mid-run NIC partition.

A change to the delivery chain, the links or the event loop that keeps
these pins pushes and pops the same events at the same times in the
same order.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.des import Environment
from repro.des.trace import Tracer
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.hardware.topology import SwitchTopology
from repro.mpi import collectives
from repro.mpi.comm import ANY_SOURCE, SimComm
from repro.mpi.perf import RENDEZVOUS_THRESHOLD, MpiPerf
from repro.mpi.topology import RankMap
from repro.obs import Observability, trace_digest

RANK = EndpointGranularity.RANK
NODE = EndpointGranularity.NODE
#: Three nodes, two per leaf: node pairs (0, 1) stay on a leaf, every
#: pair with node 2 crosses both uplinks.
LEAVES = SwitchTopology(nodes_per_switch=2, oversubscription=4.0)
WORKMODEL = AlyaWorkModel(
    case=CaseKind.CFD, n_cells=200_000, cg_iters_per_step=3,
    nominal_timesteps=10,
)
#: The measured steps run over about [0.0100, 0.0193] s on bare metal,
#: [0.1529, 0.1627] s under Singularity and [10.5035, 10.5279] s under
#: Docker (image pull first); every fault below lands inside its window.
PARTITION = FaultPlan(
    schedule=(
        FaultEvent(10.505, FaultKind.LINK_PARTITION, node=1, duration=0.004),
        FaultEvent(10.515, FaultKind.LINK_PARTITION, node=2, duration=0.003),
    )
)
CRASH = FaultPlan(
    schedule=(FaultEvent(10.51, FaultKind.NODE_CRASH, node=1),)
).with_tolerance(detect_timeout=0.001)
BARE_PARTITION = FaultPlan(
    schedule=(
        FaultEvent(0.012, FaultKind.LINK_PARTITION, node=0, duration=0.002),
    )
)
SINGULARITY_PARTITION = FaultPlan(
    schedule=(
        FaultEvent(0.155, FaultKind.LINK_PARTITION, node=2, duration=0.002),
    )
)

RUNTIMES = {
    "bare-metal": ("bare-metal", False),
    "singularity": ("singularity", False),
    "docker": ("docker", False),
    "docker-host": ("docker", True),
}


def _spec(runtime, granularity, topology=None, plan=None) -> ExperimentSpec:
    name, host_net = RUNTIMES[runtime]
    return ExperimentSpec(
        name=f"pin-{runtime}",
        cluster=catalog.LENOX,
        runtime_name=name,
        technique=(
            None if name == "bare-metal" else BuildTechnique.SELF_CONTAINED
        ),
        workmodel=WORKMODEL,
        n_nodes=3,
        ranks_per_node=4,
        sim_steps=2,
        granularity=granularity,
        docker_host_network=host_net,
        switch_topology=topology,
        fault_plan=plan,
    )


def _run_digest(spec: ExperimentSpec) -> str:
    obs = Observability()
    traced = ExperimentRunner().run(spec, obs=obs)
    traced_events = obs.metrics.to_dict()["des.events_executed"]["value"]
    # The untraced run takes the hook-free event loop and skips the
    # trace records; its result and event count must be the same.
    plain = ExperimentRunner().run(spec)
    assert plain.to_json_dict() == traced.to_json_dict()
    blob = json.dumps(
        {
            "result": traced.to_json_dict(),
            "trace": trace_digest(obs),
            "events": traced_events,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


PIPELINE_CASES = {
    f"{rt}-{g.value}-{topo}": (rt, g, LEAVES if topo == "leaves" else None,
                               None)
    for rt in RUNTIMES
    for g in (RANK, NODE)
    for topo in ("flat", "leaves")
}
PIPELINE_CASES.update({
    "docker-rank-flat-partition": ("docker", RANK, None, PARTITION),
    "docker-rank-leaves-partition": ("docker", RANK, LEAVES, PARTITION),
    "docker-node-flat-partition": ("docker", NODE, None, PARTITION),
    "docker-rank-flat-crash": ("docker", RANK, None, CRASH),
    "docker-rank-leaves-crash": ("docker", RANK, LEAVES, CRASH),
    "bare-metal-rank-leaves-partition": (
        "bare-metal", RANK, LEAVES, BARE_PARTITION),
    "singularity-rank-flat-partition": (
        "singularity", RANK, None, SINGULARITY_PARTITION),
})

PIPELINE_PINS = {
    "bare-metal-node-flat": "e9cc46dce7d11061",
    "bare-metal-node-leaves": "3809bd58f0a66de8",
    "bare-metal-rank-flat": "94247caf7f4a6728",
    "bare-metal-rank-leaves": "41c23bbe2b2ed501",
    "bare-metal-rank-leaves-partition": "289745240210e7bc",
    "docker-host-node-flat": "175ac1d761cc9b0e",
    "docker-host-node-leaves": "755bd589a22503dd",
    "docker-host-rank-flat": "cf9d5a9a91ba9513",
    "docker-host-rank-leaves": "a6b805324a696b8b",
    "docker-node-flat": "d4df8710df8d7d68",
    "docker-node-flat-partition": "8a8f981336ae4119",
    "docker-node-leaves": "bc4e341f31c39c15",
    "docker-rank-flat": "0b15173080239160",
    "docker-rank-flat-crash": "c62149b73c60a98d",
    "docker-rank-flat-partition": "5e2b28f052256f54",
    "docker-rank-leaves": "03b191e9a6d1d9d5",
    "docker-rank-leaves-crash": "5ea29e7877089b0b",
    "docker-rank-leaves-partition": "3d60dbfdc1bb0025",
    "singularity-node-flat": "dfeb2bb23052f75a",
    "singularity-node-leaves": "4bc957ccae0ef860",
    "singularity-rank-flat": "d2fa871e7c7c5299",
    "singularity-rank-flat-partition": "50d28b9613de2bd1",
    "singularity-rank-leaves": "39b1e5b7e253387f",
}


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
def test_pipeline_delivery_pinned(case):
    rt, granularity, topology, plan = PIPELINE_CASES[case]
    assert _run_digest(_spec(rt, granularity, topology, plan)) == (
        PIPELINE_PINS[case]
    )


def test_crash_case_requeues_on_docker():
    """The crash pin exercises a relaunch on a fresh communicator over
    the same bridged nodes."""
    result = ExperimentRunner().run(_spec("docker", RANK, None, CRASH))
    assert result.requeues == 1


# -- the communicator alone ----------------------------------------------------

SIZES = (0, 16, 4096, RENDEZVOUS_THRESHOLD, RENDEZVOUS_THRESHOLD + 1,
         1_000_000)


def _comm_digest(path, topology, ranks_per_node, partition) -> str:
    n_nodes = 3
    n = n_nodes * ranks_per_node
    spec = catalog.LENOX
    env = Environment()
    cluster = Cluster(env, spec, num_nodes=n_nodes)
    cluster.wire_network(path, topology=topology)
    tracer = Tracer()
    comm = SimComm(
        env, cluster, RankMap(n_ranks=n, n_nodes=n_nodes),
        MpiPerf.for_fabric(spec.fabric, path), tracer=tracer,
        collective_fastpath=False,
    )
    finish = {}

    def body(r):
        sends = [
            comm.isend(r, (r + k) % n, 1, SIZES[(r + k) % len(SIZES)])
            for k in range(1, len(SIZES) + 1)
        ]
        sends.append(comm.isend(r, r, 2, SIZES[r % len(SIZES)]))
        for _ in range(len(SIZES)):
            yield comm.recv(r, ANY_SOURCE, 1)
        yield comm.recv(r, r, 2)
        yield env.all_of(sends)
        for step in range(2):
            yield comm.exchange(
                r, (r + 1) % n, (r - 1) % n, 10 + step,
                SIZES[(r + step) % len(SIZES)],
            )
        yield from collectives.allreduce(comm, r, op=3, nbytes=16)
        msg = yield from comm.sendrecv(
            r, (r + 2) % n, (r - 2) % n, 20, 2 * RENDEZVOUS_THRESHOLD
        )
        finish[r] = (env.now, msg.src)

    for r in range(n):
        env.process(body(r))
    if partition:
        nic = cluster.nodes[1].nic_tx

        def flap():
            yield env.timeout(2e-4)
            nic.set_bandwidth_factor(0.0)
            yield env.timeout(1e-3)
            nic.set_bandwidth_factor(1.0)

        env.process(flap())
    env.run()
    seq = [(rec.time, rec.category, rec.label) for rec in tracer.records]
    blob = repr((
        seq, finish, env.events_executed, comm.messages_sent,
        comm.bytes_sent, comm.internode_messages, comm.self_messages,
        comm.messages_matched_fast,
    ))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


COMM_PATHS = {
    "native": NetworkPath.HOST_NATIVE,
    "tcp": NetworkPath.TCP_FALLBACK,
    "bridge": NetworkPath.BRIDGE_NAT,
}
COMM_CASES = {
    f"{p}-{topo}-{rpn}rpn{'-partition' if part else ''}": (
        COMM_PATHS[p], LEAVES if topo == "leaves" else None, rpn, part)
    for p in COMM_PATHS
    for topo in ("flat", "leaves")
    for rpn in (1, 3)
    for part in (False, True)
}

COMM_PINS = {
    "bridge-flat-1rpn": "9898e0ffa80a37f0",
    "bridge-flat-1rpn-partition": "6b8598dc66949df8",
    "bridge-flat-3rpn": "c4389b96bd5e0cb0",
    "bridge-flat-3rpn-partition": "fe7905300c9518b3",
    "bridge-leaves-1rpn": "691302ec5f4e6547",
    "bridge-leaves-1rpn-partition": "bdb0c7449bdf512e",
    "bridge-leaves-3rpn": "5d773593b4a21cb0",
    "bridge-leaves-3rpn-partition": "1d94a8ea3b1d62b1",
    "native-flat-1rpn": "57d7132e4af1f93d",
    "native-flat-1rpn-partition": "97934d21a3abdbdd",
    "native-flat-3rpn": "3a4aab39bfbc4fe6",
    "native-flat-3rpn-partition": "01e8523ba994a253",
    "native-leaves-1rpn": "c91c5e812093f8d6",
    "native-leaves-1rpn-partition": "fc5bb9b8ce585997",
    "native-leaves-3rpn": "c22d7f1b49ac731b",
    "native-leaves-3rpn-partition": "093b08ce71c827bf",
    "tcp-flat-1rpn": "6407a730c465ffcf",
    "tcp-flat-1rpn-partition": "33eba6183bc8e48e",
    "tcp-flat-3rpn": "a959e850c5c2087a",
    "tcp-flat-3rpn-partition": "4baa66c6f4147c57",
    "tcp-leaves-1rpn": "845c5fa070a3ad32",
    "tcp-leaves-1rpn-partition": "d650cdf9d0885b19",
    "tcp-leaves-3rpn": "7228aaafaa39f6b8",
    "tcp-leaves-3rpn-partition": "131e6050d7125278",
}


@pytest.mark.parametrize("case", sorted(COMM_CASES))
def test_comm_delivery_pinned(case):
    assert _comm_digest(*COMM_CASES[case]) == COMM_PINS[case]


def _record_pins() -> None:  # pragma: no cover - regeneration helper
    for case in sorted(PIPELINE_CASES):
        rt, g, topo, plan = PIPELINE_CASES[case]
        print(f'    "{case}": "{_run_digest(_spec(rt, g, topo, plan))}",')
    print()
    for case in sorted(COMM_CASES):
        print(f'    "{case}": "{_comm_digest(*COMM_CASES[case])}",')


if __name__ == "__main__":  # pragma: no cover
    _record_pins()
