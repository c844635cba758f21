"""Singularity runtime model.

Deployment of a SIF image on a node (Singularity 2.x, as in the paper):

1. the single image file already lives on the parallel filesystem — only
   its header is read at start (no pull, no extraction);
2. the SUID starter escalates, unshares **Mount + PID only**, loop-mounts
   the squashfs partition read-only, performs the site bind mounts
   (``$HOME``, scratch — plus host MPI/fabric directories for a
   system-specific image), then drops privileges and execs the payload.

Because the NET namespace is shared with the host (NET is not in
:data:`~repro.oskernel.namespaces.HPC_KINDS`), the container sees the
fabric HCAs; whether it can *drive* them is a pure userspace question
decided by the image's build technique
(:meth:`~repro.containers.runtime.ContainerRuntime.network_path`).
"""

from __future__ import annotations

from repro.containers.image import SIFImage
from repro.containers.runtime import ContainerRuntime
from repro.oskernel.namespaces import HPC_KINDS, setup_cost

#: Fixed costs (seconds), from published Singularity 2.x startup traces.
HEADER_READ_BYTES = 1.0e6
STARTER_EXEC = 0.020
LOOP_MOUNT = 0.015


class SingularityRuntime(ContainerRuntime):
    """Singularity with the SUID starter workflow."""

    name = "singularity"
    cpu_overhead = 1.0  # §C: "close to bare-metal performances"
    launch_overhead_per_rank = 0.08  # starter + loop setup per exec
    image_type = SIFImage
    unshares = HPC_KINDS

    def _deploy_node(self, env, cluster, os_, image, registry, step):
        # 1. Read the SIF header off the parallel filesystem.
        with step("header_read"):
            yield cluster.shared_fs.transfer(HEADER_READ_BYTES)

        # 2. SUID starter: escalates and unshares Mount+PID.
        with step("namespaces"):
            yield env.timeout(STARTER_EXEC + setup_cost(self.unshares))

        # 3. Loop-mount the squashfs partition (read-only).
        with step("loop_mount"):
            yield env.timeout(LOOP_MOUNT)
            # superblock read
            yield cluster.node(os_.node_id).disk.transfer(HEADER_READ_BYTES)

        # 4. Site bind mounts; then the starter drops privileges and the
        #    payload runs as the invoking user.
        yield from self._bind_site_dirs(env, os_, image, step)
