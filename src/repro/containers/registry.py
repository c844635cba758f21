"""Image distribution: the registry and Shifter's image gateway.

The registry's egress is a fair-share link: when *n* nodes pull the same
image simultaneously (a ``docker pull`` fan-out at job start), each gets
``1/n`` of the egress — the mechanism behind Docker's poor deployment
scaling versus Singularity's single file on the parallel filesystem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.containers.image import (
    FlatImage,
    OCIImage,
    SIFImage,
)
from repro.containers.builder import MKSQUASHFS_THROUGHPUT
from repro.des.engine import Environment
from repro.des.links import FairShareLink
from repro.faults.errors import PullError
from repro.faults.plan import FaultKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.events import Event
    from repro.faults.injector import FaultInjector


class RegistryError(RuntimeError):
    """Missing image or invalid registry operation."""


class Registry:
    """A container registry reachable from the cluster.

    Parameters
    ----------
    env:
        Simulation environment.
    egress_bandwidth:
        Aggregate bytes/s the registry can serve (shared by all pulls).
    latency:
        Per-request latency (TLS + manifest round-trips folded in).
    """

    def __init__(
        self,
        env: Environment,
        egress_bandwidth: float = 1.0e9,
        latency: float = 0.25,
    ) -> None:
        self.env = env
        self.link = FairShareLink(
            env, bandwidth=egress_bandwidth, latency=latency, name="registry"
        )
        self._images: dict[str, OCIImage | SIFImage] = {}
        #: Optional :class:`~repro.faults.injector.FaultInjector`; set by
        #: the injector's ``arm()``.  ``None`` (the default) keeps
        #: :meth:`pull_retry` on the exact single-transfer path of
        #: :meth:`pull`.
        self.faults: Optional["FaultInjector"] = None
        #: Optional mirror registry tried once per pull after the
        #: primary's retries are exhausted.
        self.fallback: Optional["Registry"] = None

    def push(self, image: OCIImage | SIFImage) -> None:
        """Make ``image`` available under its name."""
        self._images[image.name] = image

    def get(self, name: str) -> OCIImage | SIFImage:
        try:
            return self._images[name]
        except KeyError:
            raise RegistryError(f"no image {name!r} in registry") from None

    def __contains__(self, name: str) -> bool:
        return name in self._images

    def pull(self, name: str) -> "Event":
        """Transfer the image's compressed bytes; fires when complete."""
        image = self.get(name)
        return self.link.transfer(image.transfer_size)

    def pull_retry(self, name: str):
        """DES generator: pull ``name`` with retry/backoff under faults.

        With no armed injector this yields exactly the one
        ``link.transfer`` event :meth:`pull` would — same event, same
        time — so the no-fault trace is unchanged.  Under an injector,
        each attempt consumes the next pull fault (registry timeout,
        aborted transfer, corrupt layer), pays the attempt's cost on the
        simulated clock, backs off per the plan's tolerance, and retries
        up to ``pull_max_retries`` times.  When the primary gives up and
        a :attr:`fallback` registry is configured, the image is pulled
        from the mirror instead; otherwise :class:`PullError` propagates
        into the deployment.
        """
        image = self.get(name)
        faults = self.faults
        if faults is None:
            yield self.link.transfer(image.transfer_size)
            return
        tol = faults.plan.tolerance
        attempt = 0
        while True:
            attempt += 1
            fault = faults.take_pull_fault()
            if fault is None:
                yield self.link.transfer(image.transfer_size)
                return
            if fault.kind is FaultKind.REGISTRY_TIMEOUT:
                if fault.duration > 0:
                    yield self.env.timeout(fault.duration)
                reason = "registry timeout"
            elif fault.kind is FaultKind.PULL_FAIL:
                if fault.factor > 0:
                    yield self.link.transfer(
                        image.transfer_size * min(fault.factor, 1.0)
                    )
                reason = "transfer aborted"
            else:  # CORRUPT_LAYER: full transfer, digest check fails
                yield self.link.transfer(image.transfer_size)
                reason = "layer digest mismatch"
            faults.record_pull_failure(name, reason, attempt)
            if attempt > tol.pull_max_retries:
                if self.fallback is not None and name in self.fallback:
                    faults.record_pull_fallback(name)
                    yield from self.fallback.pull_retry(name)
                    return
                raise PullError(name, reason, attempt)
            yield self.env.timeout(tol.pull_delay(attempt))


class ShifterGateway:
    """Shifter's image gateway: converts OCI images to flat images, once.

    The conversion (pull + flatten + squash) happens on a gateway node and
    is cached by source digest; subsequent jobs only loop-mount the cached
    product.  This is why Shifter's *per-job* deployment overhead is small
    even though its input is a Docker image.
    """

    def __init__(self, env: Environment, registry: Registry) -> None:
        self.env = env
        self.registry = registry
        self._cache: dict[str, FlatImage] = {}
        self.conversions = 0

    def is_cached(self, image: OCIImage) -> bool:
        return image.digest in self._cache

    def cached(self, image: OCIImage) -> FlatImage:
        try:
            return self._cache[image.digest]
        except KeyError:
            raise RegistryError(
                f"image {image.name!r} has not been converted yet"
            ) from None

    def convert(self, image: OCIImage):
        """DES generator: pull (if needed) and flatten ``image``.

        Returns the cached :class:`FlatImage`.  Run it with
        ``env.process(gateway.convert(img))``.
        """
        if image.digest in self._cache:
            return self._noop(image)
        return self._convert(image)

    def _noop(self, image: OCIImage):
        if False:  # pragma: no cover - generator shape
            yield None
        return self._cache[image.digest]

    def _convert(self, image: OCIImage):
        yield from self.registry.pull_retry(image.name)
        # Flatten: apply layers in order into one tree (upper layers win),
        # then mksquashfs the merged tree — each path once, at the size of
        # its top-most copy.
        merged_bytes = 0.0
        seen: set[str] = set()
        for tree in image.layer_trees():  # top-most first
            for path, f in tree.walk_files("/"):
                if path not in seen:
                    seen.add(path)
                    merged_bytes += f.size
        yield self.env.timeout(merged_bytes / MKSQUASHFS_THROUGHPUT)
        flat = FlatImage(
            name=image.name,
            arch=image.arch,
            technique=image.technique,
            env=dict(image.env),
            entrypoint=image.entrypoint,
            content_bytes=merged_bytes,
            source_digest=image.digest,
        )
        self._cache[image.digest] = flat
        self.conversions += 1
        return flat
