"""Docker runtime model.

Deployment on a node follows the real engine's path (Docker 1.x as on
Lenox):

1. the root-owned **daemon** must be running (started once per node);
2. ``docker pull``: every node transfers the compressed layers from the
   registry — whose egress is *shared*, so pulls contend — and extracts
   them to the local layer store (gunzip + disk, whichever is slower);
3. ``docker run``: the daemon creates the **full namespace set** (the NET
   namespace alone costs ~150 ms of veth/bridge plumbing), a cgroup, and
   an **overlay** mount of the extracted layers with a fresh upper.

The created container's traffic leaves through the bridge+NAT path —
the namespace choice, not a tunable — which is what degrades MPI at
growing rank counts in Fig. 1.
"""

from __future__ import annotations

from repro.containers.compat import network_path_for
from repro.containers.image import OCIImage
from repro.containers.runtime import ContainerRuntime
from repro.oskernel.namespaces import DOCKER_KINDS, NamespaceKind, NamespaceSet

#: Fixed costs (seconds).
DAEMON_START = 0.9
DAEMON_API = 0.25
CGROUP_SETUP = 0.005
OVERLAY_MOUNT = 0.010
VETH_BRIDGE_ATTACH = 0.060
GUNZIP_THROUGHPUT = 150e6  # bytes of *uncompressed* output per second


class DockerRuntime(ContainerRuntime):
    """Docker with its root daemon and full isolation.

    Parameters
    ----------
    version:
        Site-installed version string.
    host_network:
        ``docker run --net=host`` — the era's known mitigation for MPI:
        the NET namespace is *not* unshared, traffic skips the bridge, and
        the path is decided by the image's build technique exactly as for
        Singularity/Shifter.  Costs full network isolation.
    """

    name = "docker"
    cpu_overhead = 1.005  # cgroup accounting + seccomp, sub-1%
    launch_overhead_per_rank = 0.12  # docker exec API round-trip
    container_root = "/var/lib/docker/merged"
    image_type = OCIImage

    def __init__(self, version=None, host_network: bool = False) -> None:
        super().__init__(version)
        self.host_network = host_network

    def network_path(self, image, fabric):
        if self.host_network:
            technique = image.technique if image is not None else None
            return network_path_for("singularity", technique, fabric)
        return super().network_path(image, fabric)

    def _check_inputs(self, image, registry, gateway) -> None:
        super()._check_inputs(image, registry, gateway)
        if registry is None:
            raise ValueError("Docker deployment needs a registry to pull from")

    def _deploy_node(self, env, cluster, os_, image, prepared, registry, step):
        # 1. Daemon.
        with step("daemon_start"):
            yield env.timeout(DAEMON_START)

        # 2. Pull: compressed layers over the shared registry egress, then
        #    extraction (gunzip CPU and disk write overlap).  A warm layer
        #    cache skips both.
        if image.digest not in os_.image_cache:
            with step("pull", nbytes=image.transfer_size):
                yield from registry.pull_retry(image.name)
            with step("extract", nbytes=image.content_size):
                gunzip = env.timeout(image.content_size / GUNZIP_THROUGHPUT)
                disk = cluster.node(os_.node_id).disk.transfer(
                    image.content_size
                )
                yield env.all_of([gunzip, disk])
            os_.image_cache.add(image.digest)

        # 3. Create: namespaces + cgroup + overlay (+ veth unless
        #    --net=host), via daemon.
        with step("create"):
            init = os_.processes.init_pid  # the daemon runs as root
            kinds = (
                DOCKER_KINDS - {NamespaceKind.NET}
                if self.host_network
                else DOCKER_KINDS
            )
            container_proc = os_.processes.fork(
                init, argv=(image.entrypoint,), unshare=kinds
            )
            cgroup = os_.cgroups.create(f"/docker/{image.name}-{os_.node_id}")
            os_.cgroups.attach(container_proc.global_pid, cgroup)
            container_proc.cgroup = cgroup
            container_proc.mount_table.mount_overlay(
                image.layer_trees(), self.container_root
            )
            yield env.timeout(
                DAEMON_API
                + NamespaceSet.setup_cost(kinds)
                + CGROUP_SETUP
                + OVERLAY_MOUNT
                + (0.0 if self.host_network else VETH_BRIDGE_ATTACH)
            )
        return container_proc
