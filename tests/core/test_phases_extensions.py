"""Tests for phase instrumentation, Docker host networking, rendezvous,
image caching, and the Rabenseifner collectives — the extension features."""

import pytest

from repro.alya.workmodel import AlyaWorkModel, CaseKind
from repro.containers.recipes import BuildTechnique
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.runner import ExperimentRunner
from repro.hardware import catalog
from repro.hardware.network import NetworkPath
from repro.workloads import AlyaWorkload, PhaseBreakdown


def run(runtime="bare-metal", technique=None, case=CaseKind.CFD, **kw):
    wm_kwargs = dict(case=case, n_cells=500_000, cg_iters_per_step=5,
                     nominal_timesteps=100)
    if case is CaseKind.FSI:
        wm_kwargs.update(solid_flops_per_step=1e7, interface_cells=5000)
    spec = ExperimentSpec(
        name="ext",
        cluster=catalog.LENOX,
        runtime_name=runtime,
        technique=technique,
        workmodel=AlyaWorkModel(**wm_kwargs),
        n_nodes=2,
        ranks_per_node=4,
        threads_per_rank=1,
        sim_steps=2,
        granularity=EndpointGranularity.RANK,
        **kw,
    )
    return ExperimentRunner().run(spec)


# ------------------------- phase instrumentation ------------------------------


def test_phase_times_fractions_sum_to_one():
    pt = PhaseBreakdown(dict.fromkeys(AlyaWorkload.buckets, 0.0))
    assert pt.fractions() == {}
    for bucket, dt in (("compute", 3.0), ("halo", 1.0), ("collective", 0.5),
                       ("coupling", 0.5)):
        pt.add(bucket, dt)
    fr = pt.fractions()
    assert sum(fr.values()) == pytest.approx(1.0)
    assert fr["compute"] == pytest.approx(0.6)
    assert list(fr) == ["compute", "halo", "collective", "coupling"]


def test_runner_reports_phase_fractions():
    r = run()
    assert set(r.phase_fractions) == {"compute", "halo", "collective",
                                      "coupling"}
    assert sum(r.phase_fractions.values()) == pytest.approx(1.0, abs=1e-6)
    assert r.phase_fractions["compute"] > 0
    assert r.phase_fractions["coupling"] == 0  # CFD has no coupling


def test_fsi_has_coupling_phase():
    r = run(case=CaseKind.FSI)
    assert r.phase_fractions["coupling"] > 0


def test_tcp_fallback_shifts_time_into_communication():
    ss = run("singularity", BuildTechnique.SYSTEM_SPECIFIC)
    sc = run("singularity", BuildTechnique.SELF_CONTAINED)
    comm_ss = ss.phase_fractions["halo"] + ss.phase_fractions["collective"]
    comm_sc = sc.phase_fractions["halo"] + sc.phase_fractions["collective"]
    assert comm_sc > comm_ss


# ------------------------- docker host networking ------------------------------


def test_docker_host_network_matches_singularity():
    sing = run("singularity", BuildTechnique.SELF_CONTAINED)
    hostnet = run("docker", BuildTechnique.SELF_CONTAINED,
                  docker_host_network=True)
    bridge = run("docker", BuildTechnique.SELF_CONTAINED)
    assert hostnet.avg_step_seconds < bridge.avg_step_seconds
    assert hostnet.avg_step_seconds == pytest.approx(
        sing.avg_step_seconds, rel=0.02
    )


def test_docker_host_network_path():
    from repro.containers.docker import DockerRuntime
    from repro.containers.builder import ImageBuilder
    from repro.containers.recipes import alya_recipe

    image = ImageBuilder().build_oci(
        alya_recipe(BuildTechnique.SYSTEM_SPECIFIC)
    ).image
    bridge_rt = DockerRuntime()
    host_rt = DockerRuntime(host_network=True)
    assert bridge_rt.network_path(image) is NetworkPath.BRIDGE_NAT
    assert host_rt.network_path(image) is NetworkPath.HOST_NATIVE


def test_docker_host_network_keeps_net_namespace():
    """With --net=host the container shares the host NET namespace: NET
    leaves the declared kinds, and ``docker run`` no longer pays its
    setup or the veth attach."""
    from repro.containers import (
        DockerRuntime,
        ImageBuilder,
        Registry,
    )
    from repro.containers.docker import VETH_BRIDGE_ATTACH
    from repro.containers.recipes import alya_recipe
    from repro.des import Environment
    from repro.hardware.cluster import Cluster
    from repro.oskernel.namespaces import SETUP_COST, NamespaceKind
    from repro.oskernel.nodeos import NodeOS

    image = ImageBuilder().build_oci(
        alya_recipe(BuildTechnique.SELF_CONTAINED)
    ).image

    def create_seconds(rt):
        env = Environment()
        cluster = Cluster(env, catalog.LENOX, num_nodes=1)
        registry = Registry(env)
        registry.push(image)
        holder = {}

        def main():
            holder["r"] = yield env.process(
                rt.deploy(env, cluster, [NodeOS(catalog.LENOX, 0)], image,
                          registry=registry)
            )

        env.process(main())
        env.run()
        return holder["r"][1].step("create")

    host_rt = DockerRuntime(host_network=True)
    assert NamespaceKind.NET not in host_rt.unshares
    saved = create_seconds(DockerRuntime()) - create_seconds(host_rt)
    assert saved == pytest.approx(
        SETUP_COST[NamespaceKind.NET] + VETH_BRIDGE_ATTACH
    )


# ------------------------- docker image cache ----------------------------------


def test_docker_second_deploy_uses_cache():
    from repro.containers import DockerRuntime, ImageBuilder, Registry
    from repro.containers.recipes import alya_recipe
    from repro.des import Environment
    from repro.hardware.cluster import Cluster
    from repro.oskernel.nodeos import NodeOS

    image = ImageBuilder().build_oci(
        alya_recipe(BuildTechnique.SELF_CONTAINED)
    ).image
    env = Environment()
    cluster = Cluster(env, catalog.LENOX, num_nodes=1)
    node_os = [NodeOS(catalog.LENOX, 0)]
    registry = Registry(env)
    registry.push(image)
    rt = DockerRuntime()
    reports = []

    def main():
        for _ in range(2):
            _, rep = yield env.process(
                rt.deploy(env, cluster, node_os, image, registry=registry)
            )
            reports.append(rep)

    env.process(main())
    env.run()
    first, second = reports
    assert first.step("pull") > 0
    assert second.step("pull") == 0  # cache hit
    assert second.total_seconds < first.total_seconds / 3


# ------------------------- rendezvous protocol ----------------------------------


def test_rendezvous_adds_round_trip():
    from repro.mpi.perf import MpiPerf, RENDEZVOUS_THRESHOLD

    perf = MpiPerf.for_fabric(catalog.MARENOSTRUM4.fabric,
                              NetworkPath.HOST_NATIVE)
    small = perf.message_latency(False, RENDEZVOUS_THRESHOLD)
    large = perf.message_latency(False, RENDEZVOUS_THRESHOLD + 1)
    assert large == pytest.approx(small + 2 * perf.inter.latency)
    # Intra-node rendezvous uses the shm latency.
    small_shm = perf.message_latency(True, 16)
    large_shm = perf.message_latency(True, RENDEZVOUS_THRESHOLD * 2)
    assert large_shm == pytest.approx(small_shm + 2 * perf.shm_latency)
