"""Charliecloud runtime model (extension beyond the paper's three).

Charliecloud (LANL) is the fully *unprivileged* design point: no root
daemon, no SUID helper — a USER namespace unshared together with the
MOUNT namespace gives the invoking user the capabilities to assemble the
container.  The image is a flattened squashfs mounted through FUSE
(slightly slower than a kernel loop mount, the price of rootlessness);
the network namespace is shared with the host, so the MPI path follows
the image's build technique exactly as for Singularity/Shifter.

Including it demonstrates the framework's extensibility and the design
space the paper's conclusion points at: bare-metal-class performance is a
property of *host networking + host fabric userspace*, achievable with or
without privileged components.
"""

from __future__ import annotations

from repro.containers.compat import network_path_for
from repro.containers.image import SIFImage
from repro.containers.runtime import ContainerRuntime
from repro.oskernel.namespaces import NamespaceKind, NamespaceSet
from repro.oskernel.processes import Credentials

#: Unprivileged kinds: USER makes MOUNT+PID legal without SUID.
CHARLIE_KINDS = frozenset(
    {NamespaceKind.USER, NamespaceKind.MOUNT, NamespaceKind.PID}
)

HEADER_READ_BYTES = 1.0e6
FUSE_MOUNT = 0.055  # squashfuse: slower than a kernel loop mount


class CharliecloudRuntime(ContainerRuntime):
    """Charliecloud: rootless containers via user namespaces."""

    name = "charliecloud"
    cpu_overhead = 1.0
    launch_overhead_per_rank = 0.06
    container_root = "/var/tmp/charliecloud"
    image_type = SIFImage  # a flattened squashfs

    def network_path(self, image, fabric):
        technique = image.technique if image is not None else None
        return network_path_for("singularity", technique, fabric)

    def _deploy_node(self, env, cluster, os_, image, prepared, registry, step):
        # 1. Image header off the parallel filesystem.
        with step("header_read"):
            yield cluster.shared_fs.transfer(HEADER_READ_BYTES)

        # 2. Rootless namespace assembly: NO SUID, NO daemon — the user
        #    process unshares USER+MOUNT+PID directly.
        with step("namespaces"):
            user = os_.processes.fork(
                os_.processes.init_pid,
                argv=("slurm-task",),
                creds=Credentials.user(1000),
            )
            container_proc = os_.processes.fork(
                user.global_pid,
                argv=(image.entrypoint,),
                unshare=CHARLIE_KINDS,
            )
            assert not container_proc.creds.is_privileged
            yield env.timeout(NamespaceSet.setup_cost(CHARLIE_KINDS))

        # 3. FUSE mount of the squashfs.
        with step("fuse_mount"):
            table = container_proc.mount_table
            table.mount_squashfs(image.tree, self.container_root)
            yield env.timeout(FUSE_MOUNT)
            yield cluster.node(os_.node_id).disk.transfer(HEADER_READ_BYTES)

        # 4. Site bind mounts.
        yield from self._bind_site_dirs(env, os_, image, table, step)
        return container_proc
