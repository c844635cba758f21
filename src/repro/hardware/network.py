"""Interconnect fabric models and container network paths.

The paper's central portability finding hinges on *which network path* an
MPI message takes:

- ``HOST_NATIVE`` — the host's fabric stack (verbs / PSM2), available to
  bare-metal runs, Singularity/Shifter (host network, Mount+PID namespaces
  only), and to *system-specific* images that bind the host MPI.
- ``BRIDGE_NAT`` — Docker's default bridge + NAT through a network
  namespace and veth pair: TCP only, extra per-message latency and
  per-byte encapsulation overhead, and a software-switch bandwidth cap.
- ``TCP_FALLBACK`` — what a *self-contained* image gets on a cluster whose
  fast fabric needs host libraries: TCP over IPoIB/IPoFabric, with an
  order-of-magnitude latency penalty and a fraction of the native
  bandwidth (paper Figs. 2–3).

:meth:`FabricSpec.path_params` maps a (fabric, path) pair to the effective
latency / bandwidth / per-byte overhead used by the MPI cost model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class FabricKind(enum.Enum):
    """Physical interconnect family."""

    ETHERNET_TCP = "ethernet-tcp"
    INFINIBAND = "infiniband"
    OMNIPATH = "omni-path"


class NetworkPath(enum.Enum):
    """The software path MPI traffic takes out of a process."""

    HOST_NATIVE = "host-native"
    BRIDGE_NAT = "bridge-nat"
    TCP_FALLBACK = "tcp-fallback"


@dataclass(frozen=True)
class PathParams:
    """Effective point-to-point parameters of a fabric for one path."""

    latency: float
    bandwidth: float
    per_byte_overhead: float = 1.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.per_byte_overhead < 1.0:
            raise ValueError("per_byte_overhead must be >= 1")


# Bridge/NAT constants: a veth pair + NAT adds ~2 softirq hops per
# direction and the kernel software switch tops out well below fast
# fabrics.  Derived from published docker-vs-host netperf deltas.
_BRIDGE_EXTRA_LATENCY = 35e-6
_BRIDGE_BYTE_OVERHEAD = 1.08
_BRIDGE_BW_CAP = 1.4e9  # bytes/s, CPU-bound soft switching

#: CPU time one softirq core spends forwarding one message through the
#: docker0 bridge + NAT (veth pair, bridge lookup, conntrack/NAT rewrite
#: — Docker 1.x era).  This work is *serialized per node* (a single
#: ksoftirqd), which is what makes Docker's MPI collapse as rank counts
#: grow (Fig. 1): message volume scales with ranks, the bridge does not.
BRIDGE_CPU_PER_MESSAGE = 120e-6


@dataclass(frozen=True)
class FabricSpec:
    """An inter-node fabric.

    Attributes
    ----------
    name:
        e.g. ``"Intel Omni-Path"``.
    kind:
        Physical family; decides whether a self-contained container can
        drive it (TCP fabrics need no host stack).
    bandwidth:
        Native per-port bandwidth, bytes/s.
    latency:
        Native small-message one-way latency, seconds.
    needs_host_stack:
        True when user-space fabric libraries (verbs, PSM2) are required
        for native speed — the crux of the system-specific vs.
        self-contained distinction.
    fallback_bandwidth / fallback_latency:
        TCP-over-fabric (IPoIB-style) parameters used by the
        ``TCP_FALLBACK`` path; default to the native numbers for fabrics
        that are already TCP.
    """

    name: str
    kind: FabricKind
    bandwidth: float
    latency: float
    needs_host_stack: bool
    fallback_bandwidth: Optional[float] = None
    fallback_latency: Optional[float] = None

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.needs_host_stack:
            if self.fallback_bandwidth is None or self.fallback_latency is None:
                raise ValueError(
                    "fabrics that need a host stack must define TCP fallback "
                    "parameters"
                )

    def path_params(self, path: NetworkPath) -> PathParams:
        """Effective parameters for MPI traffic taking ``path``."""
        if path is NetworkPath.HOST_NATIVE:
            return PathParams(self.latency, self.bandwidth)
        if path is NetworkPath.TCP_FALLBACK:
            if not self.needs_host_stack:
                # Plain TCP fabric: the "fallback" is the native path with
                # in-container TCP framing.
                return PathParams(self.latency, self.bandwidth, 1.02)
            return PathParams(
                float(self.fallback_latency),
                float(self.fallback_bandwidth),
                1.05,
            )
        if path is NetworkPath.BRIDGE_NAT:
            base = self.path_params(NetworkPath.TCP_FALLBACK)
            return PathParams(
                base.latency + _BRIDGE_EXTRA_LATENCY,
                min(base.bandwidth, _BRIDGE_BW_CAP),
                base.per_byte_overhead * _BRIDGE_BYTE_OVERHEAD,
            )
        raise ValueError(f"unknown path {path!r}")  # pragma: no cover


# --------------------------------------------------------------------------
# The fabrics of the paper's four clusters.
# --------------------------------------------------------------------------

GIGABIT_ETHERNET = FabricSpec(
    name="1GbE (TCP)",
    kind=FabricKind.ETHERNET_TCP,
    bandwidth=0.125e9,  # 1 Gbit/s
    latency=50e-6,
    needs_host_stack=False,
)

FORTY_GIG_ETHERNET = FabricSpec(
    name="40GbE (TCP)",
    kind=FabricKind.ETHERNET_TCP,
    bandwidth=5.0e9,
    latency=25e-6,
    needs_host_stack=False,
)

INFINIBAND_EDR = FabricSpec(
    name="Mellanox InfiniBand EDR",
    kind=FabricKind.INFINIBAND,
    bandwidth=12.5e9,  # 100 Gbit/s
    latency=1.0e-6,
    needs_host_stack=True,
    fallback_bandwidth=2.5e9,  # IPoIB, CPU bound
    fallback_latency=30e-6,
)

OMNIPATH_100 = FabricSpec(
    name="Intel Omni-Path 100",
    kind=FabricKind.OMNIPATH,
    bandwidth=12.5e9,
    latency=1.1e-6,
    needs_host_stack=True,
    # IPoFabric on OPA is fully CPU-onloaded; under the congestion of a
    # collective-heavy job its effective small-message latency sits in
    # the 100-200 us class, which is why the paper's self-contained runs
    # stop scaling (Fig. 3).
    fallback_bandwidth=1.6e9,
    fallback_latency=150e-6,
)

# Intra-node shared-memory "fabric" parameters used by the MPI model.
SHM_LATENCY = 0.4e-6
SHM_BANDWIDTH = 8.0e9
