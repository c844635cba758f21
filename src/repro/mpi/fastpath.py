"""Exact analytic short-circuit for lockstep collectives.

A pairwise-exchange collective whose ranks all enter at the same instant
on an idle network advances in lockstep: in every round each rank sends
one message and receives one, each on its own node's NIC pipes, so every
flow runs alone at full rate and every rank finishes the round together:

    ``t' = deliver(t) = fl(fl(t + L) + w)``

— exactly the float arithmetic of the simulated delivery chain, where
``L`` is the per-message latency (:meth:`MpiPerf.message_latency`,
including the rendezvous handshake when it applies) and ``w =
fl(fl(fl(nbytes·o_mpi)·o_link)/bw)`` the single-flow wire time.  The
collective's completion time is that recurrence over its per-round
message sizes, which the parity suite in ``tests/mpi/test_fastpath.py``
checks bit for bit against the message schedule.  The kinds kept are
exactly those whose participants all finish at the same instant:

- ring ``allgather`` and ``allreduce_ring`` (neighbour-only flows);
- recursive-doubling ``allreduce`` on power-of-two sizes;
- the per-round-size family: recursive-halving ``reduce_scatter``,
  recursive-doubling allgather, and Rabenseifner ``allreduce`` (decided
  as its two component phases).

Trees (bcast, reduce) and the non-power-of-two fold allreduce finish
their ranks at different times.  A rank that finishes early moves on
and can put traffic on a NIC the closed form still assumes idle, so no
closed form for them can be exact; they always run as messages.

**Static gates** (:meth:`CollectiveFastPath.eligible`, evaluated once
when the communicator is built — failing any means no fast path at all):
at least two endpoints, each on its own node with wired NICs, no switch
topology (uplinks would be shared), no Docker bridge (its FIFO softirq
queue couples messages), and no tracer recording ``mpi.send`` or
``mpi.deliver`` (a traced run replays every message, so its records are
complete).  The communicator must also be the job's WORLD communicator
(a :class:`~repro.mpi.comm.GroupComm` cannot see sends from non-members
to its members' NICs) and the run must carry no fault plan (a fault can
change a link or a rank mid-collective); the runner enforces the last.

**Per-collective decision.**  The first participant to join a collective
registers one end-of-instant callback
(:meth:`~repro.des.engine.Environment.at_end_of_instant`).  When it
fires — nothing left to dispatch at ``now``, before the clock advances —
the closed form is used only if all ``p`` participants joined in that
instant, no message of the communicator is still undelivered (latency
stage included), and every participant's NIC transmit and receive pipes
are idle and run at the same rate.  The decision is taken before any of the collective's messages
exist.  Otherwise every joined rank resumes at that same instant with
:data:`DECLINED` and runs the message schedule; ranks that join later go
straight to messages.  Either way the simulated times are the message
schedule's; the only error this module raises is the invariant that
every rank joins a collective with the same shape, once.

A short-circuited collective emits no ``mpi.send``/``mpi.deliver``
records (traced runs never take it) and never posts receives, so
``messages_matched_fast`` does not count its messages.  It adds to the
communicator's ``messages_sent``, ``internode_messages`` and
``bytes_sent`` exactly what the messages would have, adding bytes one
message at a time in send order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.des.engine import SimulationError
from repro.des.events import Event
from repro.des.links import _EPS_BYTES

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import SimComm


class _Declined:
    """Type of :data:`DECLINED`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DECLINED"


#: Value of a joined rank's event when its collective declined the
#: closed form: the rank falls through to the message schedule.
DECLINED = _Declined()


class _Session:
    """One collective awaiting (or past) its decision."""

    __slots__ = ("kind", "sizes", "ranks", "events", "joined", "declined")

    def __init__(self, kind: str, sizes: tuple, p: int) -> None:
        self.kind = kind
        self.sizes = sizes
        #: Which ranks joined (the join-once invariant).
        self.ranks = bytearray(p)
        #: Events of the ranks that joined before the decision, in join
        #: order.
        self.events: List[Event] = []
        self.joined = 0
        self.declined = False


class CollectiveFastPath:
    """Closed-form scheduler for the lockstep collectives of one WORLD
    communicator; see the module docstring."""

    def __init__(self, comm: "SimComm") -> None:
        self.comm = comm
        self._sessions: Dict[int, _Session] = {}
        nodes = comm.cluster.nodes
        #: Participant NIC pipes, checked idle (and equally fast) at
        #: every decision.
        self._nics = [
            (nodes[n].nic_tx, nodes[n].nic_rx)
            for n in (comm.node_of_rank(i) for i in range(comm.size))
        ]
        #: Collectives resolved analytically instead of message-by-message.
        self.collectives_short_circuited = 0
        #: Collectives whose decision fell back to the message schedule.
        self.collectives_declined = 0
        #: Messages accounted for analytically (counted into the comm's
        #: traffic counters without being simulated).
        self.messages_modelled = 0

    @staticmethod
    def eligible(comm: "SimComm") -> bool:
        """The static gates (see the module docstring)."""
        p = comm.size
        if p < 2 or comm._trace_send or comm._trace_deliver:
            return False
        cluster = comm.cluster
        if cluster._topology is not None:
            return False
        seen: set[int] = set()
        for i in range(p):
            nid = comm.node_of_rank(i)
            if nid in seen:
                return False  # two participants share a NIC
            seen.add(nid)
            node = cluster.nodes[nid]
            if node.bridge is not None:
                return False
            if node.nic_tx is None or node.nic_rx is None:
                return False
        return True

    def join(
        self, kind: str, rank: int, op: int, sizes: tuple
    ) -> Optional[Event]:
        """Join collective ``op``, whose round *r* has every rank send
        one ``sizes[r]``-byte message.

        Returns the event to wait on — it fires with ``None`` at the
        closed-form completion time, or with :data:`DECLINED` at the
        decision instant — or ``None`` when the collective was already
        declined and this rank goes straight to messages.
        """
        p = self.comm.size
        sess = self._sessions.get(op)
        if sess is None:
            sess = self._sessions[op] = _Session(kind, sizes, p)
            self.comm.env.at_end_of_instant(lambda: self._decide(op))
        elif sess.kind != kind or sess.sizes != sizes:
            raise SimulationError(
                f"collective fast path: op {op} joined as {kind} with "
                f"sizes {sizes}, but as {sess.kind} with sizes "
                f"{sess.sizes} by another rank"
            )
        if sess.ranks[rank]:
            raise SimulationError(
                f"collective fast path: rank {rank} joined op {op} twice"
            )
        sess.ranks[rank] = 1
        sess.joined += 1
        if sess.declined:
            if sess.joined == p:
                del self._sessions[op]
            return None
        ev = Event(self.comm.env)
        sess.events.append(ev)
        return ev

    def _decide(self, op: int) -> None:
        sess = self._sessions[op]
        comm = self.comm
        p = comm.size
        if sess.joined == p:
            del self._sessions[op]
            bw = self._nics[0][0].bandwidth
            if not comm._in_flight and all(
                not tx.active_flows and not rx.active_flows
                and tx.bandwidth == bw == rx.bandwidth
                for tx, rx in self._nics
            ):
                self._resolve(sess)
                return
        sess.declined = True
        self.collectives_declined += 1
        for ev in sess.events:
            ev.succeed(DECLINED)

    def _resolve(self, sess: _Session) -> None:
        comm = self.comm
        perf = comm.perf
        link = self._nics[0][0]
        o_mpi = perf.inter.per_byte_overhead
        p = comm.size
        t = comm.env.now
        acc = comm.bytes_sent
        for size in sess.sizes:
            wire = (size * o_mpi) * link.per_byte_overhead
            w = wire / link.bandwidth if wire > _EPS_BYTES else 0.0
            t = (t + perf.message_latency(False, size)) + w
            # One add per message in send order, as isend accumulates:
            # a single multiply-add can differ in the last ulp.
            for _ in range(p):
                acc += size
        msgs = p * len(sess.sizes)
        comm.bytes_sent = acc
        comm.messages_sent += msgs
        comm.internode_messages += msgs  # one rank per node: all cross
        self.messages_modelled += msgs
        self.collectives_short_circuited += 1
        schedule_at = comm.env._schedule_at
        for ev in sess.events:
            ev._value = None  # succeeds at the exact absolute time
            schedule_at(ev, t)
