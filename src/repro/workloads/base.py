"""The workload interface: phase programs that lower to the DES.

A *workload* is an application model the simulator can run: it owns a
work-model dataclass (the per-step cost description that rides on
:class:`~repro.core.experiment.ExperimentSpec`), and it knows how to
turn that model into the SPMD generator each simulated endpoint
executes.  There is one lowering:

- :class:`Workload` is the minimal contract — ``build_app`` returns any
  object with a ``rank_body(comm, ep)`` generator.
- :class:`PhasedWorkload` is how every built-in workload (Alya
  included) implements it: per step the workload emits a tuple of
  *phases* — :class:`ComputePhase`, :class:`HaloPhase`,
  :class:`CollectivePhase`, :class:`IOPhase`, and the two composites
  :class:`BlockPhase` and :class:`OverlapPhase` — and the shared
  :class:`PhasedApp` compiles them to DES events (compute as
  straggler-scaled timeouts, halos as non-blocking neighbour sendrecv
  joined with :class:`~repro.des.events.JoinAll` unless the fast path
  closes them, collectives through :mod:`repro.mpi.collectives`, IO as
  shared-filesystem transfers).

Determinism contract (every workload must honour it — the executor
cache, the golden-trace suite and the serving digests all assume it):

- ``phases()`` must be a pure function of ``(work, ctx, n_endpoints,
  step)`` — no RNG, no wall clock, no dict/set iteration whose order
  can leak into phase order or op ids;
- op ids must be distinct per phase within one step, blocks and
  overlaps included (the step's op window is :data:`OPS_PER_STEP`
  wide; collective round tags live at ``op * 1024 + round``, so
  consecutive integer offsets are safe for up to 1024 internal rounds);
- observability markers are emitted by the lowering, named after each
  top-level phase (a block marks once, under its own name), on the
  endpoint's ``ep-{n}`` track — a workload never touches ``obs``
  directly.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

from repro.des.events import JoinAll
from repro.mpi import collectives
from repro.mpi.comm import SimComm
from repro.mpi.datatypes import collective_tag
from repro.mpi.fastpath import DECLINED, HALO

#: Op-id stride reserved for one simulated time step.
OPS_PER_STEP = 2048


def compute_seconds(flops: float, ctx) -> float:
    """Wall seconds of ``flops`` of arithmetic under ``ctx``.

    Sustained (not peak) core flop rate, the OpenMP threading model, and
    the container runtime's CPU overhead multiplier.
    """
    if not 0 <= flops < math.inf:
        raise ValueError(f"flops must be >= 0 and finite, got {flops}")
    serial = flops / ctx.sustained_core_flops
    threaded = ctx.omp.threaded_time(serial, ctx.threads_per_rank)
    return threaded * ctx.cpu_overhead


def grid_neighbors(
    rankmap, ep: int, endpoint_is_node: bool, topology: str = "grid"
) -> "list[tuple[int, int]]":
    """Neighbours of endpoint ``ep`` as ``(neighbor, axis)`` pairs.

    A (nodes x per-node-slot) process grid where axis 0 links
    consecutive endpoints on one node (shared memory) and axis 1 links
    the same slot on adjacent nodes (fabric); ``"chain"`` is the 1-D
    slab partition (at most two neighbours).  In node mode the grid
    degenerates to a chain of nodes.
    """
    if topology == "chain":
        out: list[tuple[int, int]] = []
        if ep > 0:
            out.append((ep - 1, 0))
        if ep < rankmap.n_ranks - 1:
            out.append((ep + 1, 0))
        return out
    per_node = 1 if endpoint_is_node else rankmap.ranks_per_node
    node, j = divmod(ep, per_node) if per_node > 1 else (ep, 0)
    if endpoint_is_node:
        node, j = ep, 0
    out = []
    if per_node > 1:
        if j > 0:
            out.append((ep - 1, 0))
        if j < per_node - 1 and ep + 1 < rankmap.n_ranks:
            out.append((ep + 1, 0))
    if node > 0:
        out.append((ep - per_node, 1))
    if node < rankmap.n_nodes - 1 and ep + per_node < rankmap.n_ranks:
        out.append((ep + per_node, 1))
    return out


# ---------------------------------------------------------------------------
# The phase IR.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComputePhase:
    """Arithmetic: ``seconds`` of wall time on the endpoint.

    The lowering scales it by the endpoint node's straggler factor when
    a fault injector is armed.  With ``root`` set, only that endpoint
    computes and the others pass straight through: a serial stage such
    as Alya's solid step, which runs at its nominal time (never
    straggler-scaled).
    """

    name: str
    seconds: float
    root: Optional[int] = None

    def __post_init__(self) -> None:
        # Written as ``not 0 <= x < inf`` so that NaN fails every check.
        if not 0 <= self.seconds < math.inf:
            raise ValueError(
                f"compute seconds must be >= 0 and finite, got {self.seconds}"
            )
        if self.root is not None and self.root < 0:
            raise ValueError("compute root must be >= 0")


@dataclass(frozen=True)
class HaloPhase:
    """Nearest-neighbour exchange: ``nbytes`` with every grid neighbour.

    Lowered to non-blocking sends/receives joined at the end — the
    latency-bound p2p pattern collectives never exercise.  ``op`` is the
    phase's offset inside the step's op window (distinct per phase).
    """

    name: str
    nbytes: float
    op: int

    def __post_init__(self) -> None:
        if not 0 <= self.nbytes < math.inf:
            raise ValueError(
                f"halo nbytes must be >= 0 and finite, got {self.nbytes}"
            )
        if not 0 <= self.op < OPS_PER_STEP:
            raise ValueError(f"op offset must be in [0, {OPS_PER_STEP})")


#: Collective kinds :class:`CollectivePhase` can lower to.
COLLECTIVE_KINDS = ("allreduce", "allgather", "gather", "bcast")


@dataclass(frozen=True)
class CollectivePhase:
    """A collective over the whole communicator.

    ``nbytes`` is the payload per rank for ``allgather``/``gather`` and
    the full payload for ``allreduce``/``bcast`` — the same conventions
    as :mod:`repro.mpi.collectives`.  ``pre_delay`` seconds of analytic
    cost (e.g. a folded intra-node stage) run first, inside the phase's
    measured interval.
    """

    name: str
    kind: str
    nbytes: float
    op: int
    root: int = 0
    pre_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in COLLECTIVE_KINDS:
            raise ValueError(
                f"unknown collective kind {self.kind!r}; "
                f"expected one of {COLLECTIVE_KINDS}"
            )
        if not 0 <= self.nbytes < math.inf:
            raise ValueError(
                f"collective nbytes must be >= 0 and finite, got {self.nbytes}"
            )
        if not 0 <= self.pre_delay < math.inf:
            raise ValueError(
                "collective pre_delay must be >= 0 and finite, "
                f"got {self.pre_delay}"
            )
        if not 0 <= self.op < OPS_PER_STEP:
            raise ValueError(f"op offset must be in [0, {OPS_PER_STEP})")


@dataclass(frozen=True)
class IOPhase:
    """Shared-filesystem IO: ``nbytes`` read/written by this endpoint.

    Lowered to a delay of ``nbytes / io_bandwidth`` (the cluster's
    shared-FS bandwidth, divided fairly when every endpoint writes at
    once is the workload's own modelling choice — pass per-endpoint
    bytes here).
    """

    name: str
    nbytes: float

    def __post_init__(self) -> None:
        if not 0 <= self.nbytes < math.inf:
            raise ValueError(
                f"IO nbytes must be >= 0 and finite, got {self.nbytes}"
            )


@dataclass(frozen=True)
class BlockPhase:
    """A run of ``phases`` that marks one span, named ``name``.

    The inner phases mark no spans of their own.  With ``bucket`` unset
    each inner phase bills its own bucket, one add per phase; with
    ``bucket`` set the whole block bills that bucket in one add over its
    interval (the inner phases bill nothing).
    """

    name: str
    phases: tuple
    bucket: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if self.bucket is not None and not self.bucket:
            raise ValueError("block bucket must be a non-empty name")


@dataclass(frozen=True)
class OverlapPhase:
    """``halo`` hidden behind ``compute``.

    The halo's sends and receives are posted, the compute runs (billed
    and marked as itself), then the wait for the halo is billed and
    marked as the halo.
    """

    halo: HaloPhase
    compute: ComputePhase

    def __post_init__(self) -> None:
        if not isinstance(self.halo, HaloPhase):
            raise TypeError("overlap halo must be a HaloPhase")
        if not isinstance(self.compute, ComputePhase):
            raise TypeError("overlap compute must be a ComputePhase")


Phase = object  # union of the phase dataclasses (duck-typed)


def _phase_ops(phases) -> "list[int]":
    """Op offsets of ``phases`` in program order, blocks and overlaps
    included."""
    ops = []
    for p in phases:
        kind = type(p)
        if kind is BlockPhase:
            ops.extend(_phase_ops(p.phases))
        elif kind is OverlapPhase:
            ops.append(p.halo.op)
        elif kind is HaloPhase or kind is CollectivePhase:
            ops.append(p.op)
    return ops


# ---------------------------------------------------------------------------
# Where the time went.
# ---------------------------------------------------------------------------


@dataclass
class PhaseBreakdown:
    """Per-bucket wall seconds of one endpoint (compute / halo /
    collective / io / ...), in first-billed order unless seeded — the
    runner aggregates ``fractions()`` across endpoints."""

    seconds: dict = field(default_factory=dict)

    def add(self, bucket: str, dt: float) -> None:
        self.seconds[bucket] = self.seconds.get(bucket, 0.0) + dt

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def fractions(self) -> "dict[str, float]":
        t = self.total
        if t <= 0:
            return {}
        return {k: v / t for k, v in self.seconds.items()}


#: Which breakdown bucket each phase kind bills to.
_BUCKET = {
    ComputePhase: "compute",
    HaloPhase: "halo",
    CollectivePhase: "collective",
    IOPhase: "io",
}


# ---------------------------------------------------------------------------
# The workload contract.
# ---------------------------------------------------------------------------


class Workload(abc.ABC):
    """One registrable application model.

    Subclasses set :attr:`name` (the registry key and the value of
    :attr:`ExperimentSpec.workload <repro.core.experiment.ExperimentSpec>`)
    and :attr:`workmodel_type` (the dataclass their specs must carry),
    and implement :meth:`default_workmodel` and :meth:`build_app`.
    """

    #: Registry key; also what ``ExperimentSpec.workload`` names.
    name: ClassVar[str] = ""
    #: Work-model dataclass :meth:`validate_spec` accepts.
    workmodel_type: ClassVar[type] = object
    #: One-line description for ``repro-study``'s listings.
    description: ClassVar[str] = ""
    #: Documented scaling envelope on the Lenox reference grid
    #: (1/2/4 nodes, 7 ranks x 4 threads, default work model): the
    #: lowest parallel efficiency any strong-scaling point may show,
    #: and the largest step-time growth factor a weak-scaling series
    #: may show.  ``repro-study scaling`` and the workload-scaling
    #: bench gate against these — a communication-bound workload
    #: documents an honest (low) floor rather than faking linearity.
    strong_efficiency_floor: ClassVar[float] = 0.05
    weak_growth_ceiling: ClassVar[float] = 25.0
    #: Breakdown buckets every endpoint reports, in this order, even
    #: when nothing is billed to them (seeded at 0.0).  Empty: buckets
    #: appear in first-billed order.
    buckets: ClassVar[tuple] = ()

    def validate_spec(self, spec) -> None:
        """Reject specs whose work model this workload cannot run: the
        wrong type, or a non-finite float field (a NaN passes every
        ``x <= 0`` check and then hangs the run or drops work)."""
        work = spec.workmodel
        if not isinstance(work, self.workmodel_type):
            raise TypeError(
                f"workload {self.name!r} needs a "
                f"{self.workmodel_type.__name__} work model, got "
                f"{type(work).__name__}"
            )
        if dataclasses.is_dataclass(work):
            for f in dataclasses.fields(work):
                value = getattr(work, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(
                        f"work model field {f.name} must be finite, "
                        f"got {value}"
                    )

    @abc.abstractmethod
    def default_workmodel(self, fig: str = "fig1"):
        """The canonical work model for one of the serving figure
        shapes (``fig1`` = Lenox-sized, ``fig3`` = MareNostrum4-sized)."""

    @abc.abstractmethod
    def build_app(self, spec, ctx, obs=None, faults=None):
        """The executable app for ``spec``: an object exposing
        ``rank_body(comm, ep)`` (and optionally returning a phase
        breakdown), ready for :class:`~repro.mpi.launcher.MpiJob`."""

    def nudge(self, work, i: int):
        """Variant ``i`` of ``work``: a distinct spec key at a cost
        difference too small to measure (the load-generator universes'
        knob).  Default: bump the model's cell count by ``i``."""
        if i < 0:
            raise ValueError("nudge index must be >= 0")
        return dataclasses.replace(work, n_cells=work.n_cells + i)


class PhasedWorkload(Workload):
    """A workload defined by its per-step phase program.

    Subclasses implement :meth:`phases`; :meth:`build_app` lowers the
    program through the shared :class:`PhasedApp`.
    """

    #: Neighbour layout for :class:`HaloPhase` ("grid" or "chain").
    topology: ClassVar[str] = "grid"

    @abc.abstractmethod
    def phases(self, work, ctx, n_endpoints: int, step: int) -> Sequence:
        """The step's phase tuple (pure and deterministic — see the
        module docstring's contract)."""

    def build_app(self, spec, ctx, obs=None, faults=None) -> "PhasedApp":
        return PhasedApp(
            self,
            spec.workmodel,
            ctx,
            sim_steps=spec.sim_steps,
            topology=self.topology,
            io_bandwidth=spec.cluster.shared_fs_bandwidth,
            obs=obs,
            faults=faults,
        )


# ---------------------------------------------------------------------------
# The shared lowering.
# ---------------------------------------------------------------------------


class PhasedApp:
    """Compiles a :class:`PhasedWorkload`'s phase program to the DES.

    Compute becomes a (straggler-scaled) timeout, halos become joined
    non-blocking neighbour exchanges, collectives dispatch to
    :mod:`repro.mpi.collectives`, IO becomes a bandwidth delay; blocks
    and overlaps compose those.  Each top-level phase marks an obs span
    named after itself and bills its interval to the endpoint's
    :class:`PhaseBreakdown`.

    A blocking :class:`HaloPhase` is first offered to the communicator's
    fast path (:meth:`~repro.mpi.fastpath.CollectiveFastPath.join`),
    which resolves it in closed form when every endpoint enters in the
    same instant on idle NICs, with the same result as the messages;
    on a decline, or without a fast path, it runs as messages.  The
    halo of an :class:`OverlapPhase` always runs as messages: the
    endpoint computes while it is in flight.
    """

    def __init__(
        self,
        workload: PhasedWorkload,
        work,
        ctx,
        sim_steps: int = 2,
        topology: str = "grid",
        io_bandwidth: float = 1e9,
        obs=None,
        faults=None,
    ) -> None:
        if sim_steps < 1:
            raise ValueError("sim_steps must be >= 1")
        if topology not in ("grid", "chain"):
            raise ValueError("topology must be 'grid' or 'chain'")
        if not 0 < io_bandwidth < math.inf:
            raise ValueError(
                f"io_bandwidth must be positive and finite, got {io_bandwidth}"
            )
        self.workload = workload
        self.work = work
        self.ctx = ctx
        self.sim_steps = sim_steps
        self.topology = topology
        self.io_bandwidth = io_bandwidth
        self.obs = obs
        self.faults = faults
        # Phase programs are pure in (work, ctx, n_endpoints, step);
        # memoise per (n_endpoints, step) so p endpoints share one
        # program object instead of recomputing it p times.
        self._memo: dict = {}

    def _phases_for(self, n_endpoints: int, step: int):
        key = (n_endpoints, step)
        prog = self._memo.get(key)
        if prog is None:
            prog = tuple(
                self.workload.phases(self.work, self.ctx, n_endpoints, step)
            )
            ops = _phase_ops(prog)
            if len(ops) != len(set(ops)):
                raise ValueError(
                    f"workload {self.workload.name!r} emitted duplicate op "
                    f"offsets in step {step}: {sorted(ops)}"
                )
            self._memo[key] = prog
        return prog

    def _neighbors(self, comm: SimComm, ep: int):
        return grid_neighbors(
            comm.rankmap, ep, self.ctx.endpoint_is_node, self.topology
        )

    def _halo(self, comm: SimComm, ep: int, op: int, nbytes: float, nbrs):
        """All non-blocking halo sends/receives with the ``(neighbour,
        axis)`` pairs ``nbrs`` for one phase."""
        events = []
        for nb, axis in nbrs:
            send_round = axis * 2 + (0 if nb < ep else 1)
            recv_round = axis * 2 + (0 if ep < nb else 1)
            events.append(
                comm.isend(ep, nb, collective_tag(op, send_round), nbytes)
            )
            events.append(comm.recv(ep, nb, collective_tag(op, recv_round)))
        return events

    def _compute_delay(self, phase: ComputePhase, ep_node: int,
                       now: float) -> float:
        """Wall seconds of ``phase`` on node ``ep_node`` starting at
        ``now``: nominal, times the node's straggler factor when an
        injector is armed and the phase is not root-only."""
        dt = phase.seconds
        if self.faults is not None and phase.root is None:
            dt *= self.faults.cpu_factor(ep_node, now)
        return dt

    def _lower(self, comm: SimComm, ep: int, ep_node: int, phases,
               base: int, breakdown, mark):
        """Run ``phases`` on endpoint ``ep`` (generator).

        Each phase bills its interval to ``breakdown`` and marks a span
        through ``mark``; either is skipped when ``None`` (the inside of
        a block).
        """
        env = comm.env
        for phase in phases:
            t = env.now
            kind = type(phase)
            bucket = _BUCKET.get(kind)
            if kind is HaloPhase:
                op = base + phase.op
                nbytes = phase.nbytes
                nbrs = self._neighbors(comm, ep)
                fp = comm.fastpath
                ev = None  # no fast path, or nothing to exchange
                if fp is not None and nbrs:
                    sends = tuple((nb, nbytes) for nb, _ in nbrs)
                    ev = fp.join(HALO, ep, op, sends)
                if ev is None or (yield ev) is DECLINED:
                    pending = self._halo(comm, ep, op, nbytes, nbrs)
                    if pending:
                        yield JoinAll(env, pending)
            elif kind is CollectivePhase:
                if phase.pre_delay:
                    yield env.timeout(phase.pre_delay)
                op = base + phase.op
                if phase.kind == "allreduce":
                    yield from collectives.allreduce(
                        comm, ep, op=op, nbytes=phase.nbytes
                    )
                elif phase.kind == "allgather":
                    yield from collectives.allgather(
                        comm, ep, op=op, nbytes_per_rank=phase.nbytes
                    )
                elif phase.kind == "gather":
                    yield from collectives.gather(
                        comm, ep, op=op, nbytes_per_rank=phase.nbytes,
                        root=phase.root,
                    )
                else:  # bcast
                    yield from collectives.bcast(
                        comm, ep, op=op, nbytes=phase.nbytes,
                        root=phase.root,
                    )
            elif kind is ComputePhase:
                if phase.root is None or phase.root == ep:
                    dt = self._compute_delay(phase, ep_node, t)
                    if dt > 0:
                        yield env.timeout(dt)
            elif kind is IOPhase:
                dt = phase.nbytes / self.io_bandwidth
                if dt > 0:
                    yield env.timeout(dt)
            elif kind is BlockPhase:
                bucket = phase.bucket
                yield from self._lower(
                    comm, ep, ep_node, phase.phases, base,
                    breakdown if bucket is None else None, None,
                )
            elif kind is OverlapPhase:
                pending = self._halo(
                    comm, ep, base + phase.halo.op, phase.halo.nbytes,
                    self._neighbors(comm, ep),
                )
                yield from self._lower(
                    comm, ep, ep_node, (phase.compute,), base,
                    breakdown, mark,
                )
                # The wait behind the compute bills and marks as the halo.
                t = env.now
                if pending:
                    yield JoinAll(env, pending)
                phase = phase.halo
                bucket = "halo"
            else:
                raise TypeError(
                    f"workload {self.workload.name!r} emitted an "
                    f"unknown phase {phase!r}"
                )
            if breakdown is not None and bucket is not None:
                breakdown.add(bucket, env.now - t)
            if mark is not None:
                mark(phase.name, t)

    def rank_body(self, comm: SimComm, ep: int):
        """Generator executed by endpoint ``ep``."""
        env = comm.env
        breakdown = PhaseBreakdown(dict.fromkeys(self.workload.buckets, 0.0))
        obs = self.obs
        ep_node = comm.rankmap.node_of(ep) if self.faults is not None else 0
        track = f"ep-{ep}"

        def mark(name: str, t0: float) -> None:
            if obs is not None and env.now > t0:
                obs.add_span(name, "solver", t0, env.now, track=track,
                             step=step)

        for step in range(self.sim_steps):
            step_t0 = env.now
            yield from self._lower(
                comm, ep, ep_node, self._phases_for(comm.size, step),
                step * OPS_PER_STEP, breakdown, mark,
            )
            mark("step", step_t0)
        return breakdown

    def body(self):
        """The SPMD entry point for :class:`~repro.mpi.launcher.MpiJob`."""
        return self.rank_body
