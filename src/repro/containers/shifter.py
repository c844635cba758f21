"""Shifter runtime model.

Shifter separates *conversion* from *execution*: the image gateway pulls a
Docker image and flattens it into one loop-mountable file, **once per
image**; job-time deployment on each node is then a cheap loop mount plus
Mount+PID namespaces via the SUID helper — structurally the same start-up
class as Singularity, which is why both track bare-metal in Fig. 1.
"""

from __future__ import annotations

from repro.containers.image import OCIImage
from repro.containers.runtime import ContainerRuntime
from repro.oskernel.namespaces import HPC_KINDS, NamespaceSet
from repro.oskernel.processes import Credentials

LOOP_MOUNT = 0.015
UDIROOT_SETUP = 0.030  # Shifter's udiRoot environment preparation


class ShifterRuntime(ContainerRuntime):
    """Shifter with its image gateway and udiRoot."""

    name = "shifter"
    cpu_overhead = 1.0
    launch_overhead_per_rank = 0.05
    container_root = "/var/udiMount"
    image_type = OCIImage  # converted by the gateway

    def _check_inputs(self, image, registry, gateway) -> None:
        super()._check_inputs(image, registry, gateway)
        if gateway is None:
            raise ValueError("Shifter deployment needs an image gateway")

    def _prepare(self, env, image, gateway, step):
        # 1. Gateway conversion (cached across jobs and nodes).
        with step("gateway_convert", cached=gateway.is_cached(image)):
            flat = yield env.process(gateway.convert(image))
        return flat

    def _deploy_node(self, env, cluster, os_, image, prepared, registry, step):
        # 2. udiRoot setup + namespaces via the SUID helper.
        with step("namespaces"):
            user = os_.processes.fork(
                os_.processes.init_pid,
                argv=("slurm-task",),
                creds=Credentials.user(1000),
            )
            helper_creds = user.creds.escalate_suid()
            helper = os_.processes.fork(
                user.global_pid, argv=("shifter-suid",), creds=helper_creds
            )
            container_proc = os_.processes.fork(
                helper.global_pid,
                argv=(image.entrypoint,),
                unshare=HPC_KINDS,
                creds=helper_creds,
            )
            yield env.timeout(UDIROOT_SETUP + NamespaceSet.setup_cost(HPC_KINDS))

        # 3. Loop-mount the flattened image from the parallel FS.
        with step("loop_mount"):
            table = container_proc.mount_table
            table.mount_squashfs(prepared.tree, self.container_root)
            yield env.timeout(LOOP_MOUNT)
            yield cluster.shared_fs.transfer(1.0e6)  # superblock + metadata

        # 4. Site bind mounts.
        yield from self._bind_site_dirs(env, os_, image, table, step)

        container_proc.creds = helper_creds.drop_privileges()
        return container_proc
