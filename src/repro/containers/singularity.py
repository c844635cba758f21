"""Singularity runtime model.

Deployment of a SIF image on a node (Singularity 2.x, as in the paper):

1. the single image file already lives on the parallel filesystem — only
   its header is read at start (no pull, no extraction);
2. the SUID starter escalates, unshares **Mount + PID only**, loop-mounts
   the squashfs partition read-only, performs the site bind mounts
   (``$HOME``, scratch — plus host MPI/fabric directories for a
   system-specific image), then drops privileges and execs the payload.

Because the NET namespace is shared with the host, the container sees the
fabric HCAs; whether it can *drive* them is a pure userspace question
decided by the image's build technique (:mod:`repro.containers.compat`).
"""

from __future__ import annotations

from repro.containers.image import SIFImage
from repro.containers.runtime import ContainerRuntime
from repro.oskernel.namespaces import HPC_KINDS, NamespaceSet
from repro.oskernel.processes import Credentials

#: Fixed costs (seconds), from published Singularity 2.x startup traces.
HEADER_READ_BYTES = 1.0e6
STARTER_EXEC = 0.020
LOOP_MOUNT = 0.015


class SingularityRuntime(ContainerRuntime):
    """Singularity with the SUID starter workflow."""

    name = "singularity"
    cpu_overhead = 1.0  # §C: "close to bare-metal performances"
    launch_overhead_per_rank = 0.08  # starter + loop setup per exec
    container_root = "/var/singularity/mnt"
    image_type = SIFImage

    def _deploy_node(self, env, cluster, os_, image, prepared, registry, step):
        # 1. Read the SIF header off the parallel filesystem.
        with step("header_read"):
            yield cluster.shared_fs.transfer(HEADER_READ_BYTES)

        # 2. SUID starter: user creds escalate, unshare Mount+PID.
        with step("namespaces"):
            user = os_.processes.fork(
                os_.processes.init_pid,
                argv=("sbatch-shell",),
                creds=Credentials.user(1000),
            )
            starter_creds = user.creds.escalate_suid()
            starter = os_.processes.fork(
                user.global_pid, argv=("starter-suid",), creds=starter_creds
            )
            container_proc = os_.processes.fork(
                starter.global_pid,
                argv=(image.entrypoint,),
                unshare=HPC_KINDS,
                creds=starter_creds,
            )
            yield env.timeout(STARTER_EXEC + NamespaceSet.setup_cost(HPC_KINDS))

        # 3. Loop-mount the squashfs partition (read-only).
        with step("loop_mount"):
            table = container_proc.mount_table
            table.mount_squashfs(image.tree, self.container_root)
            yield env.timeout(LOOP_MOUNT)
            # superblock read
            yield cluster.node(os_.node_id).disk.transfer(HEADER_READ_BYTES)

        # 4. Site bind mounts.
        yield from self._bind_site_dirs(env, os_, image, table, step)

        # 5. Drop privileges; the payload runs as the invoking user.
        container_proc.creds = starter_creds.drop_privileges()
        return container_proc
