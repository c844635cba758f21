"""The bare-metal baseline "runtime".

No image, no namespaces beyond the host's, no deployment cost: the
reference every figure in the paper compares against.
"""

from __future__ import annotations

from typing import Sequence

from repro.containers.runtime import (
    ContainerRuntime,
    DeployedContainer,
    DeploymentReport,
)
from repro.oskernel.nodeos import NodeOS


class BareMetalRuntime(ContainerRuntime):
    """Runs the application directly on the host."""

    name = "bare-metal"
    cpu_overhead = 1.0
    launch_overhead_per_rank = 0.01  # plain exec + dynamic linking

    def deploy(
        self,
        env,
        cluster,
        node_os: Sequence[NodeOS],
        image=None,
        registry=None,
        gateway=None,
        obs=None,
    ):
        """Immediate: the application binary already sits on the shared FS."""
        if image is not None:
            raise ValueError("bare-metal execution takes no container image")
        self.check(cluster.spec, None)
        if obs is not None:  # zero-cost deployment, but make it visible
            obs.add_span("noop", "deploy", env.now, env.now, track="deploy",
                         runtime=self.name)
        network_path = self.network_path(None)
        containers = [
            DeployedContainer(
                runtime_name=self.name,
                node_id=os_.node_id,
                image=None,
                network_path=network_path,
                cpu_overhead=self.cpu_overhead,
                launch_overhead_per_rank=self.launch_overhead_per_rank,
            )
            for os_ in node_os
        ]
        report = DeploymentReport(
            runtime_name=self.name,
            image_name="(none)",
            node_count=len(node_os),
            total_seconds=0.0,
        )
        if False:  # pragma: no cover - generator shape
            yield None
        return containers, report
