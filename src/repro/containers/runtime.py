"""Runtime base class and deployment accounting.

A runtime's ``deploy`` is a DES generator that performs the real sequence
of steps (pull, extract, unshare, mount, bind) on each node, charging
simulated time for each.  It returns one :class:`DeployedContainer` per
node plus a :class:`DeploymentReport` whose step breakdown feeds the §B.1
table.  :meth:`ContainerRuntime.deploy` owns everything around the steps;
an image runtime supplies only its per-node steps (``_deploy_node``).

Each runtime declares the namespace kinds it unshares
(:attr:`ContainerRuntime.unshares`).  Its namespace step charges their
setup cost, and :meth:`ContainerRuntime.network_path` reads the same set:
a container in its own NET namespace talks through the bridge.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

from repro.containers.compat import (
    check_admin_for_daemon,
    check_architecture,
    check_runtime_installed,
)
from repro.containers.image import AnyImage
from repro.containers.recipes import BuildTechnique
from repro.hardware.network import NetworkPath
from repro.oskernel.namespaces import NamespaceKind
from repro.oskernel.nodeos import NodeOS

if TYPE_CHECKING:  # pragma: no cover
    from repro.containers.registry import Registry, ShifterGateway
    from repro.des.engine import Environment
    from repro.hardware.cluster import Cluster

#: Seconds per site bind mount.
BIND_MOUNT = 0.002


@dataclass
class DeployedContainer:
    """A container instance ready to run ranks on one node."""

    runtime_name: str
    node_id: int
    image: Optional[AnyImage]
    network_path: NetworkPath
    #: Multiplier on compute time (1.0 = no CPU overhead).
    cpu_overhead: float = 1.0
    #: Seconds to exec one MPI rank inside the container.
    launch_overhead_per_rank: float = 0.0


@dataclass
class DeploymentReport:
    """Wall-clock accounting of a deployment across nodes."""

    runtime_name: str
    image_name: str
    node_count: int
    total_seconds: float
    #: step name -> wall seconds attributable to the step (critical path).
    steps: dict[str, float] = field(default_factory=dict)

    def step(self, name: str) -> float:
        """Seconds spent in ``name`` (0.0 when the step did not occur)."""
        return self.steps.get(name, 0.0)

    def to_json_dict(self) -> dict:
        """JSON-safe payload; inverse of :meth:`from_json_dict`."""
        return {
            "runtime_name": self.runtime_name,
            "image_name": self.image_name,
            "node_count": self.node_count,
            "total_seconds": self.total_seconds,
            "steps": dict(self.steps),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DeploymentReport":
        return cls(
            runtime_name=payload["runtime_name"],
            image_name=payload["image_name"],
            node_count=payload["node_count"],
            total_seconds=payload["total_seconds"],
            steps=dict(payload["steps"]),
        )


class ContainerRuntime:
    """Common protocol of the execution modes.

    :meth:`deploy` is the one deployment scaffold: input and site checks,
    the once-per-job step, the per-node fan-out in node order, the step
    bookkeeping, the :class:`DeployedContainer` per node and the
    :class:`DeploymentReport`.  An image runtime declares only what is its
    own: its :attr:`image_type`, optionally a registry or gateway check in
    :meth:`_check_inputs` and a :meth:`_prepare` step, and
    :meth:`_deploy_node`, its namespace, mount, pull and cgroup steps on
    one node, and :attr:`unshares`, the namespace kinds those steps
    create.  The HPC runtimes share one bind-mount policy,
    :meth:`_bind_site_dirs`.
    """

    #: Runtime identifier matching the cluster's ``installed_runtimes``.
    name: str = "abstract"
    #: CPU-time multiplier containers of this runtime pay.
    cpu_overhead: float = 1.0
    #: Seconds to exec one rank.
    launch_overhead_per_rank: float = 0.0
    #: Namespace kinds each container unshares from the host (§A).  The
    #: namespace step charges their setup cost and :meth:`network_path`
    #: reads NET from it.
    unshares: frozenset[NamespaceKind] = frozenset()
    #: The image format this runtime deploys (``SIFImage`` or
    #: ``OCIImage``); None for bare metal, which takes no image.
    image_type: Optional[type] = None

    def __init__(self, version: Optional[str] = None) -> None:
        self.version = version

    # -- checks ------------------------------------------------------------
    def check(self, cluster_spec, image: Optional[AnyImage]) -> None:
        """Validate that this runtime can run ``image`` on the cluster."""
        check_runtime_installed(self.name, cluster_spec)
        check_admin_for_daemon(self.name, cluster_spec)
        if image is not None:
            check_architecture(image, cluster_spec)

    def network_path(self, image: Optional[AnyImage]) -> NetworkPath:
        """The path this runtime's MPI traffic takes.

        A container in its own NET namespace reaches other nodes only
        through the bridge+NAT path.  One that shares the host's sees the
        fabric, and then the image decides: bare metal and system-specific
        images drive it natively, self-contained ones carry a TCP-only MPI
        and fall back.
        """
        if NamespaceKind.NET in self.unshares:
            return NetworkPath.BRIDGE_NAT
        if image is None or image.technique is BuildTechnique.SYSTEM_SPECIFIC:
            return NetworkPath.HOST_NATIVE
        return NetworkPath.TCP_FALLBACK

    # -- deployment ----------------------------------------------------------
    def deploy(
        self,
        env: "Environment",
        cluster: "Cluster",
        node_os: Sequence[NodeOS],
        image: Optional[AnyImage] = None,
        registry: Optional["Registry"] = None,
        gateway: Optional["ShifterGateway"] = None,
        obs=None,
    ):
        """DES generator deploying ``image`` on every node in ``node_os``.

        ``obs`` is an optional :class:`repro.obs.span.Observability`
        receiving one span per deployment step per node.
        Returns ``(list[DeployedContainer], DeploymentReport)``.
        """
        self._check_inputs(image, registry, gateway)
        self.check(cluster.spec, image)
        t0 = env.now
        steps: dict[str, float] = {}
        yield from self._prepare(
            env, image, gateway, partial(self._step, env, steps, obs, "gateway")
        )
        network_path = self.network_path(image)
        containers: list[Optional[DeployedContainer]] = [None] * len(node_os)

        def per_node(i: int, os_: NodeOS):
            step = partial(self._step, env, steps, obs, f"node-{os_.node_id}")
            yield from self._deploy_node(
                env, cluster, os_, image, registry, step
            )
            containers[i] = DeployedContainer(
                runtime_name=self.name,
                node_id=os_.node_id,
                image=image,
                network_path=network_path,
                cpu_overhead=self.cpu_overhead,
                launch_overhead_per_rank=self.launch_overhead_per_rank,
            )

        yield env.all_of([
            env.process(per_node(i, os_), name=f"{self.name}-deploy-{i}")
            for i, os_ in enumerate(node_os)
        ])
        report = DeploymentReport(
            runtime_name=self.name,
            image_name=image.name,
            node_count=len(node_os),
            total_seconds=env.now - t0,
            steps=steps,
        )
        return containers, report

    def _check_inputs(self, image, registry, gateway) -> None:
        """Reject inputs this runtime cannot deploy; runs before the site
        checks.  The base checks the image format; a runtime that needs a
        registry or gateway extends it."""
        if not isinstance(image, self.image_type):
            raise TypeError(
                f"{self.name} deploys {self.image_type.__name__}s, "
                f"not {type(image).__name__}"
            )

    def _prepare(self, env: "Environment", image, gateway, step):
        """DES generator: the once-per-job step before the per-node
        fan-out, timed with ``step`` on the ``gateway`` track; none by
        default."""
        return
        yield  # pragma: no cover - makes this a generator

    def _deploy_node(self, env: "Environment", cluster: "Cluster",
                     os_: NodeOS, image, registry, step):
        """DES generator: this runtime's steps on one node.

        ``step(name, **attrs)`` is a context manager timing one step on
        the node's track.
        """
        raise NotImplementedError

    def _bind_site_dirs(self, env: "Environment", os_: NodeOS, image, step):
        """DES generator: the site bind mounts of the HPC runtimes, one
        :data:`BIND_MOUNT` each.

        ``$HOME`` and scratch always; for a system-specific image also the
        host MPI directory, and the host fabric directory where the node
        has fabric userspace.
        """
        binds = 2
        if image.technique is BuildTechnique.SYSTEM_SPECIFIC:
            binds += 2 if os_.has_fabric_userspace else 1
        with step("bind_mounts"):
            for _ in range(binds):
                yield env.timeout(BIND_MOUNT)

    @contextmanager
    def _step(self, env: "Environment", steps: dict[str, float], obs,
              track: str, name: str, **attrs):
        """Time one deployment step: folds the body's simulated duration
        into ``steps`` (critical-path max across nodes) and, when ``obs``
        is given, records a span on ``track``."""
        t0 = env.now
        try:
            yield
        finally:
            steps[name] = max(steps.get(name, 0.0), env.now - t0)
            if obs is not None:
                obs.add_span(
                    name, "deploy", t0, env.now, track=track,
                    runtime=self.name, **attrs,
                )

    def __repr__(self) -> str:  # pragma: no cover
        v = f" {self.version}" if self.version else ""
        return f"<{type(self).__name__}{v}>"
