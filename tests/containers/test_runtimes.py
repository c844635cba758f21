"""Tests for the four execution modes' deployment behaviour."""

import pytest

from repro.containers import (
    BareMetalRuntime,
    DockerRuntime,
    ImageBuilder,
    Registry,
    ShifterGateway,
    ShifterRuntime,
    SingularityRuntime,
)
from repro.containers import docker, shifter, singularity
from repro.containers.recipes import BuildTechnique, alya_recipe
from repro.containers.runtime import BIND_MOUNT
from repro.core.deployment import image_for
from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.oskernel.namespaces import (
    DOCKER_KINDS,
    HPC_KINDS,
    NamespaceKind,
    setup_cost,
)
from repro.oskernel.nodeos import NodeOS


def deploy(runtime, cluster_spec, image, n_nodes, registry_bw=1e9):
    """Run a deployment to completion; returns (containers, report, env)."""
    env = Environment()
    cluster = Cluster(env, cluster_spec, num_nodes=n_nodes)
    node_os = [NodeOS(cluster_spec, i) for i in range(n_nodes)]
    registry = Registry(env, egress_bandwidth=registry_bw)
    gateway = ShifterGateway(env, registry)
    if image is not None and image.name not in registry:
        try:
            registry.push(image)
        except Exception:
            pass
    holder = {}

    def proc():
        holder["result"] = yield env.process(
            runtime.deploy(env, cluster, node_os, image,
                           registry=registry, gateway=gateway)
        )

    env.process(proc())
    env.run()
    containers, report = holder["result"]
    return containers, report, env


@pytest.fixture(scope="module")
def images():
    b = ImageBuilder()
    sc = alya_recipe(BuildTechnique.SELF_CONTAINED)
    ss = alya_recipe(BuildTechnique.SYSTEM_SPECIFIC)
    return {
        "oci_sc": b.build_oci(sc).image,
        "oci_ss": b.build_oci(ss).image,
        "sif_sc": b.build_sif(sc).image,
        "sif_ss": b.build_sif(ss).image,
    }


# ------------------------------ bare metal -----------------------------------


def test_baremetal_zero_overhead():
    containers, report, env = deploy(BareMetalRuntime(), catalog.LENOX, None, 2)
    assert report.total_seconds == 0.0
    assert all(c.network_path is NetworkPath.HOST_NATIVE for c in containers)
    assert all(c.cpu_overhead == 1.0 for c in containers)


def test_baremetal_rejects_image(images):
    with pytest.raises(ValueError):
        deploy(BareMetalRuntime(), catalog.LENOX, images["sif_sc"], 1)


# ------------------------------ singularity ----------------------------------


def test_singularity_deploys_fast(images):
    containers, report, env = deploy(
        SingularityRuntime("2.4.5"), catalog.LENOX, images["sif_sc"], 4
    )
    assert 0 < report.total_seconds < 5.0  # sub-second class, no pull
    assert report.step("header_read") > 0
    assert report.step("namespaces") > 0
    assert report.step("loop_mount") > 0
    assert len(containers) == 4


def test_singularity_namespace_shape(images):
    """Mount+PID only: NET stays the host's, and the namespace step
    charges exactly the declared kinds' setup cost."""
    rt = SingularityRuntime()
    _, report, _ = deploy(rt, catalog.LENOX, images["sif_sc"], 1)
    assert rt.unshares == HPC_KINDS
    assert NamespaceKind.NET not in rt.unshares
    assert report.step("namespaces") == pytest.approx(
        singularity.STARTER_EXEC + setup_cost(HPC_KINDS)
    )


def test_singularity_system_specific_binds_host_mpi(images):
    """$HOME, scratch, host MPI and (Omni-Path) host fabric: four binds."""
    containers, report, _ = deploy(
        SingularityRuntime(), catalog.MARENOSTRUM4, images["sif_ss"], 1
    )
    assert report.step("bind_mounts") == pytest.approx(4 * BIND_MOUNT)
    assert containers[0].network_path is NetworkPath.HOST_NATIVE


def test_singularity_self_contained_no_host_mpi(images):
    containers, report, _ = deploy(
        SingularityRuntime(), catalog.MARENOSTRUM4, images["sif_sc"], 1
    )
    assert report.step("bind_mounts") == pytest.approx(2 * BIND_MOUNT)
    assert containers[0].network_path is NetworkPath.TCP_FALLBACK


def test_singularity_rejects_oci(images):
    with pytest.raises(TypeError):
        deploy(SingularityRuntime(), catalog.LENOX, images["oci_sc"], 1)


#: (runtime, site) pairs the catalog installs, for the bind-mount matrix.
BIND_SITES = [
    (SingularityRuntime, spec.name)
    for spec in catalog.ALL_CLUSTERS.values()
    if "singularity" in spec.installed_runtimes
] + [(ShifterRuntime, "Lenox")]


@pytest.mark.parametrize("technique", list(BuildTechnique),
                         ids=lambda t: t.value)
@pytest.mark.parametrize("cls,site", BIND_SITES,
                         ids=[f"{c.name}-{s}" for c, s in BIND_SITES])
def test_bind_mounts_per_site(cls, site, technique):
    """$HOME and scratch always; a system-specific image adds the host
    MPI directory, and the host fabric directory where the site's
    interconnect needs host userspace."""
    spec = catalog.ALL_CLUSTERS[site]
    image = image_for(cls, alya_recipe(technique, arch=spec.node.arch))
    _, report, _ = deploy(cls(), spec, image, 2)
    binds = 2
    if technique is BuildTechnique.SYSTEM_SPECIFIC:
        binds += 2 if spec.fabric.needs_host_stack else 1
    assert report.step("bind_mounts") == pytest.approx(binds * BIND_MOUNT)


# -------------------------------- docker -------------------------------------


def test_docker_deploys_with_pull(images):
    containers, report, env = deploy(
        DockerRuntime("1.11.1"), catalog.LENOX, images["oci_sc"], 1
    )
    assert report.step("pull") > 0
    assert report.step("extract") > 0
    assert report.step("create") > 0
    assert containers[0].network_path is NetworkPath.BRIDGE_NAT
    assert containers[0].cpu_overhead > 1.0


def test_docker_only_on_admin_clusters(images):
    from repro.containers.compat import RuntimeNotInstalledError

    with pytest.raises(RuntimeNotInstalledError):
        deploy(DockerRuntime(), catalog.MARENOSTRUM4, images["oci_sc"], 1)


def test_docker_deployment_slower_than_singularity(images):
    """§B.1: Docker's per-node pull+extract dwarfs Singularity's mount."""
    _, rep_d, _ = deploy(DockerRuntime(), catalog.LENOX, images["oci_sc"], 4)
    _, rep_s, _ = deploy(
        SingularityRuntime(), catalog.LENOX, images["sif_sc"], 4
    )
    assert rep_d.total_seconds > 10 * rep_s.total_seconds


def test_docker_pull_contention_scales_with_nodes(images):
    _, rep1, _ = deploy(DockerRuntime(), catalog.LENOX, images["oci_sc"], 1,
                        registry_bw=200e6)
    _, rep4, _ = deploy(DockerRuntime(), catalog.LENOX, images["oci_sc"], 4,
                        registry_bw=200e6)
    assert rep4.step("pull") > 2.5 * rep1.step("pull")


def test_docker_full_namespaces_and_cgroup(images):
    """``docker run`` charges the daemon API, the full namespace set,
    the cgroup, the overlay mount and the veth attach; ``--net=host``
    drops NET from the set and with it the NET setup and the veth."""
    fixed = docker.DAEMON_API + docker.CGROUP_SETUP + docker.OVERLAY_MOUNT
    rt = DockerRuntime()
    _, report, _ = deploy(rt, catalog.LENOX, images["oci_sc"], 1)
    assert rt.unshares == DOCKER_KINDS
    assert report.step("create") == pytest.approx(
        fixed + setup_cost(DOCKER_KINDS) + docker.VETH_BRIDGE_ATTACH
    )
    host_rt = DockerRuntime(host_network=True)
    _, host_report, _ = deploy(host_rt, catalog.LENOX, images["oci_sc"], 1)
    assert host_rt.unshares == DOCKER_KINDS - {NamespaceKind.NET}
    assert host_report.step("create") == pytest.approx(
        fixed + setup_cost(host_rt.unshares)
    )


def test_docker_requires_registry(images):
    env = Environment()
    cluster = Cluster(env, catalog.LENOX, num_nodes=1)
    node_os = [NodeOS(catalog.LENOX, 0)]
    rt = DockerRuntime()
    with pytest.raises(ValueError, match="registry"):
        env.process(rt.deploy(env, cluster, node_os, images["oci_sc"]))
        env.run()


# -------------------------------- shifter -------------------------------------


def test_shifter_first_deploy_pays_gateway(images):
    containers, report, _ = deploy(
        ShifterRuntime("16.08.3"), catalog.LENOX, images["oci_sc"], 2
    )
    assert report.step("gateway_convert") > 1.0
    assert len(containers) == 2


def test_shifter_conversion_cached_across_jobs(images):
    env = Environment()
    cluster = Cluster(env, catalog.LENOX, num_nodes=2)
    node_os = [NodeOS(catalog.LENOX, i) for i in range(2)]
    registry = Registry(env, egress_bandwidth=1e9)
    registry.push(images["oci_sc"])
    gateway = ShifterGateway(env, registry)
    rt = ShifterRuntime()
    reports = []

    def job():
        for _ in range(2):
            _, rep = yield env.process(
                rt.deploy(env, cluster, node_os, images["oci_sc"],
                          registry=registry, gateway=gateway)
            )
            reports.append(rep)

    env.process(job())
    env.run()
    first, second = reports
    assert second.total_seconds < first.total_seconds / 10
    assert gateway.conversions == 1


def test_shifter_rejects_sif(images):
    with pytest.raises(TypeError):
        deploy(ShifterRuntime(), catalog.LENOX, images["sif_sc"], 1)


def test_shifter_needs_gateway(images):
    env = Environment()
    cluster = Cluster(env, catalog.LENOX, num_nodes=1)
    node_os = [NodeOS(catalog.LENOX, 0)]
    rt = ShifterRuntime()
    with pytest.raises(ValueError, match="gateway"):
        env.process(rt.deploy(env, cluster, node_os, images["oci_sc"]))
        env.run()


def test_shifter_namespace_shape(images):
    """Shifter's udiRoot unshares Mount+PID only, like Singularity."""
    rt = ShifterRuntime()
    _, report, _ = deploy(rt, catalog.LENOX, images["oci_sc"], 1)
    assert rt.unshares == HPC_KINDS
    assert report.step("namespaces") == pytest.approx(
        shifter.UDIROOT_SETUP + setup_cost(HPC_KINDS)
    )


# ------------------------- cross-runtime ordering -----------------------------


def test_deployment_overhead_ordering(images):
    """The §B.1 table's shape: Docker >> Shifter(first job) > Singularity >
    bare-metal."""
    _, rep_bare, _ = deploy(BareMetalRuntime(), catalog.LENOX, None, 4)
    _, rep_sing, _ = deploy(
        SingularityRuntime(), catalog.LENOX, images["sif_sc"], 4
    )
    _, rep_dock, _ = deploy(DockerRuntime(), catalog.LENOX, images["oci_sc"], 4)
    assert rep_bare.total_seconds == 0
    assert rep_bare.total_seconds < rep_sing.total_seconds < rep_dock.total_seconds


#: (runtime, build technique, --net=host) cases deployable on Lenox.
DEPLOY_CASES = [
    (BareMetalRuntime, None, False),
    (DockerRuntime, BuildTechnique.SELF_CONTAINED, False),
    (DockerRuntime, BuildTechnique.SYSTEM_SPECIFIC, False),
    (DockerRuntime, BuildTechnique.SELF_CONTAINED, True),
    (DockerRuntime, BuildTechnique.SYSTEM_SPECIFIC, True),
    (SingularityRuntime, BuildTechnique.SELF_CONTAINED, False),
    (SingularityRuntime, BuildTechnique.SYSTEM_SPECIFIC, False),
    (ShifterRuntime, BuildTechnique.SELF_CONTAINED, False),
    (ShifterRuntime, BuildTechnique.SYSTEM_SPECIFIC, False),
]


@pytest.mark.parametrize(
    "cls,technique,host_network", DEPLOY_CASES,
    ids=[f"{c.name}-{t.value if t else 'none'}{'-host' if h else ''}"
         for c, t, h in DEPLOY_CASES],
)
def test_deployed_containers_follow_runtime(cls, technique, host_network):
    """One container per node, in node order, each carrying the
    runtime's declared path and overheads."""
    rt = cls(host_network=True) if host_network else cls()
    image = (
        None if technique is None
        else image_for(cls, alya_recipe(technique))
    )
    containers, report, _ = deploy(rt, catalog.LENOX, image, 3)
    assert report.node_count == 3
    assert [c.node_id for c in containers] == [0, 1, 2]
    for c in containers:
        assert c.runtime_name == rt.name
        assert c.image is image
        assert c.network_path is rt.network_path(image)
        assert c.cpu_overhead == rt.cpu_overhead
        assert c.launch_overhead_per_rank == rt.launch_overhead_per_rank
