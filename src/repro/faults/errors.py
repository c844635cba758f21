"""Typed failures raised (or delivered) by the fault subsystem."""

from __future__ import annotations


class FaultError(RuntimeError):
    """Base class for injected-failure exceptions."""


class RankFailure(FaultError):
    """A peer rank (or its whole node) died mid-job.

    Delivered to surviving ranks ``detect_timeout`` seconds after the
    crash — MPI implementations do not observe a dead peer instantly, so
    the detection delay is part of the tolerance configuration
    (:class:`repro.faults.plan.Tolerance`).
    """

    def __init__(self, node: int, time: float) -> None:
        super().__init__(
            f"node {node} failed at t={time:.6f}s"
        )
        #: Node id that crashed.
        self.node = node
        #: Simulated second the crash struck (detection happens later).
        self.time = time

    def __reduce__(self):
        # Rebuild from the constructor's arguments, not from ``args``
        # (the message), so the error survives a pool worker's pickle.
        return (type(self), (self.node, self.time))


class PullError(FaultError):
    """An image pull attempt failed (timeout, transfer abort, bad digest)."""

    def __init__(self, image: str, reason: str, attempt: int) -> None:
        super().__init__(
            f"pull of {image!r} failed on attempt {attempt}: {reason}"
        )
        self.image = image
        self.reason = reason
        self.attempt = attempt

    def __reduce__(self):
        return (type(self), (self.image, self.reason, self.attempt))
