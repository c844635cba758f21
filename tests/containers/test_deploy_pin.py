"""Literal pin of every image runtime's deployment.

One SHA-256 over the deployment of each image runtime (Singularity,
Charliecloud, Shifter, Docker, Docker ``--net=host``) × build technique ×
{1, 3} nodes, on Lenox (1GbE: no host fabric userspace) and on a
MareNostrum4-like site with every runtime (Omni-Path: fabric userspace
present, so system-specific images also bind the host fabric directory).

Per case it hashes the :class:`DeploymentReport` JSON, every
:class:`DeployedContainer` field, each node's process table (argv,
credentials, cgroup), the digest of the traced deploy spans and the
engine's ``events_executed``.  A change to the deployment code that keeps
this pin keeps the §B.1 model exactly.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.containers import (
    CharliecloudRuntime,
    DockerRuntime,
    ImageBuilder,
    Registry,
    ShifterGateway,
    ShifterRuntime,
    SingularityRuntime,
)
from repro.containers.recipes import BuildTechnique, alya_recipe
from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.obs.export import trace_digest
from repro.obs.span import Observability
from repro.oskernel.nodeos import NodeOS

ALL_RUNTIMES = {
    "docker": "1.11.1",
    "singularity": "2.4.5",
    "shifter": "16.08.3",
    "charliecloud": "0.9.6",
}
CLUSTERS = (
    dataclasses.replace(catalog.LENOX, name="Lenox+ch",
                        installed_runtimes=ALL_RUNTIMES),
    dataclasses.replace(catalog.MARENOSTRUM4, name="MN4+all",
                        admin_rights=True, installed_runtimes=ALL_RUNTIMES),
)
RUNTIMES = (
    ("singularity", SingularityRuntime, {}, "sif"),
    ("charliecloud", CharliecloudRuntime, {}, "sif"),
    ("shifter", ShifterRuntime, {}, "oci"),
    ("docker", DockerRuntime, {}, "oci"),
    ("docker-host", DockerRuntime, {"host_network": True}, "oci"),
)
NODE_COUNTS = (1, 3)

DEPLOY_PIN = "bd8841e7c937c3d5a8ecc263b5fd984f05afd8bbc3f70f88c5539467b5ff3add"


def _container_fields(ctr, os_):
    return {
        "runtime_name": ctr.runtime_name,
        "node_id": ctr.node_id,
        "image": None if ctr.image is None else ctr.image.name,
        "network_path": ctr.network_path.name,
        "isolated": sorted(
            k.value for k in ctr.namespaces.isolated_kinds(os_.namespaces)
        ),
        "mounts": [
            [m.kind, m.target, m.source_prefix, m.readonly, m.fs.label,
             m.fs is os_.rootfs]
            for m in ctr.mount_table.mounts
        ],
        "cgroup": None if ctr.cgroup is None else ctr.cgroup.path(),
        "cpu_overhead": ctr.cpu_overhead,
        "launch_overhead_per_rank": ctr.launch_overhead_per_rank,
        "root_path": ctr.root_path,
    }


def _process_table(os_):
    return [
        [p.global_pid, p.parent, list(p.argv), p.creds.uid, p.creds.euid,
         None if p.cgroup is None else p.cgroup.path()]
        for p in os_.processes.processes.values()
    ]


def _fingerprint(cluster_spec, label, runtime, image, n_nodes):
    env = Environment()
    obs = Observability()
    obs.bind(env)
    cluster = Cluster(env, cluster_spec, num_nodes=n_nodes)
    node_os = [NodeOS(cluster_spec, i) for i in range(n_nodes)]
    registry = Registry(env)
    gateway = ShifterGateway(env, registry)
    if label in ("shifter", "docker", "docker-host"):
        registry.push(image)
    holder = {}

    def main():
        holder["r"] = yield env.process(
            runtime.deploy(env, cluster, node_os, image, registry=registry,
                           gateway=gateway, obs=obs)
        )

    env.process(main())
    env.run()
    containers, report = holder["r"]
    return {
        "case": [cluster_spec.name, label, image.technique.name, n_nodes],
        "report": report.to_json_dict(),
        "containers": [
            _container_fields(c, os_) for c, os_ in zip(containers, node_os)
        ],
        "processes": [_process_table(os_) for os_ in node_os],
        "trace_digest": trace_digest(obs),
        "events_executed": env.events_executed,
    }


@pytest.fixture(scope="module")
def images():
    builder = ImageBuilder()
    out = {}
    for technique in BuildTechnique:
        recipe = alya_recipe(technique)
        out["oci", technique] = builder.build_oci(recipe).image
        out["sif", technique] = builder.build_sif(recipe).image
    return out


@pytest.fixture(scope="module")
def prints(images):
    return [
        _fingerprint(spec, label, cls(**kwargs), images[kind, technique], n)
        for spec in CLUSTERS
        for label, cls, kwargs, kind in RUNTIMES
        for technique in BuildTechnique
        for n in NODE_COUNTS
    ]


def test_deployment_pin(prints):
    assert len(prints) == 2 * len(RUNTIMES) * len(BuildTechnique) * 2
    blob = json.dumps(prints, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == DEPLOY_PIN


def test_pin_covers_host_fabric_binds(prints):
    """The pin would miss a changed fabric bind if no case made one."""
    fabric_targets = {
        m[1] for p in prints for c in p["containers"] for m in c["mounts"]
        if m[1].endswith("/host/fabric")
    }
    assert fabric_targets == {
        "/var/singularity/mnt/host/fabric",
        "/var/tmp/charliecloud/host/fabric",
        "/var/udiMount/host/fabric",
    }
