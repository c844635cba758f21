"""Literal pin of every image runtime's deployment.

One SHA-256 over the deployment of each image runtime (Singularity,
Shifter, Docker, Docker ``--net=host``) × build technique × {1, 3}
nodes, on Lenox (1GbE: no host fabric userspace) and on a
MareNostrum4-like site with every runtime (Omni-Path: fabric userspace
present, so system-specific images also bind the host fabric directory).

Per case it hashes the :class:`DeploymentReport` JSON, every
:class:`DeployedContainer` field, the digest of the traced deploy spans
and the engine's ``events_executed``.  A change to the deployment code
that keeps this pin keeps the §B.1 model exactly.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.containers import (
    DockerRuntime,
    ImageBuilder,
    Registry,
    ShifterGateway,
    ShifterRuntime,
    SingularityRuntime,
)
from repro.containers.recipes import BuildTechnique, alya_recipe
from repro.containers.runtime import BIND_MOUNT
from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.obs.export import trace_digest
from repro.obs.span import Observability
from repro.oskernel.nodeos import NodeOS

CLUSTERS = (
    catalog.LENOX,
    dataclasses.replace(catalog.MARENOSTRUM4, name="MN4+all",
                        admin_rights=True,
                        installed_runtimes=catalog.LENOX.installed_runtimes),
)
RUNTIMES = (
    ("singularity", SingularityRuntime, {}, "sif"),
    ("shifter", ShifterRuntime, {}, "oci"),
    ("docker", DockerRuntime, {}, "oci"),
    ("docker-host", DockerRuntime, {"host_network": True}, "oci"),
)
NODE_COUNTS = (1, 3)

DEPLOY_PIN = "a0e80476566267d7e0a0b3efbf66e58bd1d78a0a884163ed129629d06cbb6a60"


def _container_fields(ctr):
    return {
        "runtime_name": ctr.runtime_name,
        "node_id": ctr.node_id,
        "image": None if ctr.image is None else ctr.image.name,
        "network_path": ctr.network_path.name,
        "cpu_overhead": ctr.cpu_overhead,
        "launch_overhead_per_rank": ctr.launch_overhead_per_rank,
    }


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
        "containers": [_container_fields(c) for c in containers],
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
    """The pin would miss a changed fabric bind if no case made one: a
    system-specific deploy on the fabric site binds the host fabric
    directory too, one more bind mount than on Lenox."""
    bind_s = {
        tuple(p["case"]): p["report"]["steps"].get("bind_mounts")
        for p in prints
    }
    fabric_site = CLUSTERS[1].name
    checked = 0
    for (site, label, technique, n), seconds in bind_s.items():
        if site != fabric_site or seconds is None:
            continue
        lenox = bind_s["Lenox", label, technique, n]
        extra = BIND_MOUNT if technique == "SYSTEM_SPECIFIC" else 0.0
        assert seconds - lenox == pytest.approx(extra, abs=1e-12)
        checked += 1
    assert checked == 2 * len(BuildTechnique) * len(NODE_COUNTS)
