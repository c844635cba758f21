"""Exact analytic short-circuit for lockstep collectives and halos.

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
- recursive-doubling ``allreduce`` on power-of-two sizes.

Trees (bcast, gather) and the non-power-of-two fold allreduce finish
their ranks at different times.  A rank that finishes early moves on
and can put traffic on a NIC the closed form still assumes idle, so no
closed form for them can be exact; they always run as messages.

**Lockstep halos** (:meth:`CollectiveFastPath.join` with kind
:data:`HALO`).  A halo
exchange is one round in which every endpoint sends to each of its
neighbours and receives from each of them.  Each endpoint declares its
sends ``((neighbour, nbytes), ...)``; every message is admitted to its
source's NIC transmit pipe and its destination's receive pipe at
``when = now + L(nbytes)``.  A pipe carrying ``n`` equal flows finishes
them all at

    ``t = fl(when + fl(wire / fl(bw / n)))``

provided the link's own completion check passes there (the residual
``wire − rate·(t − when)`` is within ``max(rate·4·ulp(t), ε)``; see
:func:`~repro.des.links.lockstep_finish`, which the collectives above
call with ``n = 1``).  A message completes at ``max(t_tx(src),
t_rx(dst))`` and an endpoint when its last send and last receive have.
The halo declines when a pipe carries flows of unequal size, when a
residual check fails, when the sends are not symmetric (every
neighbour sends back), or when the endpoints would not all finish at
one instant.  The flow counts depend only on the declarations, so each
distinct declaration set is analysed once and cached.

**Static gates** (:meth:`CollectiveFastPath.eligible`, evaluated once
when the communicator is built — failing any means no fast path at all):
at least two endpoints, each on its own node with wired NICs, no switch
topology (uplinks would be shared), no Docker bridge (its FIFO softirq
queue couples messages), and no tracer recording ``mpi.send`` or
``mpi.deliver`` (a traced run replays every message, so its records are
complete).  The run must also carry no fault plan (a fault can change a
link or a rank mid-collective); the runner enforces that.

**Per-operation decision.**  Collectives and halos share one decision
path.  If a message of the communicator is still undelivered when the
first participant joins an operation — as behind a fold allreduce,
whose paired ranks get their result one hop late — the operation
declines on the spot and every participant goes straight to messages,
so an offer that cannot close costs no suspension.  Otherwise the first
participant registers one end-of-instant callback
(:meth:`~repro.des.engine.Environment.at_end_of_instant`).  When it
fires — nothing left to dispatch at ``now``, before the clock advances —
the closed form is used only if all ``p`` participants joined in that
instant, no message of the communicator is still undelivered (latency
stage included), every participant's NIC transmit and receive pipes
are idle and run at the same rate, and the kind's own closed form
holds.  The decision is taken before any of the operation's messages
exist.  Otherwise every joined rank resumes at that same instant with
:data:`DECLINED` and runs the message schedule; ranks that join later
go straight to messages.  Either way the simulated times are the
message schedule's; the only error this module raises is the invariant
that every rank joins an operation with the same kind (and, for a
collective, the same shape), once.

A short-circuited operation emits no ``mpi.send``/``mpi.deliver``
records (traced runs never take it) and never posts receives, so
``messages_matched_fast`` does not count its messages.  It adds to the
communicator's ``messages_sent``, ``internode_messages`` and
``bytes_sent`` exactly what the messages would have, adding bytes one
message at a time in send order (join order, then neighbour order, for
a halo).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.des.engine import SimulationError
from repro.des.events import Event
from repro.des.links import lockstep_finish

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import SimComm

#: Session kind of a lockstep halo (collectives use their own names).
HALO = "halo"


class _Declined:
    """Type of :data:`DECLINED`."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DECLINED"


#: Value of a joined rank's event when its operation declined the
#: closed form: the rank falls through to the message schedule.
DECLINED = _Declined()


class _Session:
    """One collective or halo awaiting (or past) its decision."""

    __slots__ = ("kind", "shape", "shapes", "order", "events", "declined")

    def __init__(self, kind: str, shape: tuple, p: int) -> None:
        self.kind = kind
        #: The first joiner's shape: a collective's per-round sizes,
        #: which every rank must repeat.
        self.shape = shape
        #: rank -> its declared shape (a halo's sends); ``None`` until
        #: the rank joins (the join-once invariant).
        self.shapes: List[Optional[tuple]] = [None] * p
        #: Ranks in join order.
        self.order: List[int] = []
        #: Events of the ranks that joined before the decision, in join
        #: order.
        self.events: List[Event] = []
        self.declined = False


def _halo_plan(shapes: "List[tuple]") -> Optional[tuple]:
    """What a halo's closed form needs from its per-rank sends
    ``shapes`` alone: ``(classes, groups)``, where ``classes`` lists the
    distinct ``(n, nbytes)`` flow sets its NIC pipes carry and
    ``groups`` the distinct sets of class indices an endpoint's messages
    touch (an endpoint finishes at the latest of them).  ``None`` when
    no closed form applies: unequal flows on one pipe, asymmetric or
    duplicate neighbours, or an endpoint with nothing to exchange."""
    p = len(shapes)
    tx: List[list] = [[] for _ in range(p)]
    rx: List[list] = [[] for _ in range(p)]
    pairs = set()
    for src, sends in enumerate(shapes):
        if not sends:
            return None
        for dst, nbytes in sends:
            if not 0 <= dst < p or dst == src or (src, dst) in pairs:
                return None
            pairs.add((src, dst))
            tx[src].append(nbytes)
            rx[dst].append(nbytes)
    if any((dst, src) not in pairs for src, dst in pairs):
        return None  # someone waits on a message nobody sends
    index: Dict[tuple, int] = {}

    def cls(sizes: list) -> Optional[int]:
        if any(s != sizes[0] for s in sizes):
            return None
        return index.setdefault((len(sizes), sizes[0]), len(index))

    tx_c = [cls(s) for s in tx]
    rx_c = [cls(s) for s in rx]
    if None in tx_c or None in rx_c:
        return None
    groups = set()
    for e, sends in enumerate(shapes):
        # e's send to nb and nb's send back to e, each on two pipes.
        groups.add(frozenset(
            c for nb, _ in sends
            for c in (tx_c[e], rx_c[nb], tx_c[nb], rx_c[e])
        ))
    return tuple(index), tuple(tuple(g) for g in groups)


class CollectiveFastPath:
    """Closed-form scheduler for the lockstep collectives and halos of
    one communicator; see the module docstring."""

    def __init__(self, comm: "SimComm") -> None:
        self.comm = comm
        self._env = comm.env
        self._p = comm.size
        self._sessions: Dict[int, _Session] = {}
        #: Halo declarations (per-rank sends) -> plan, or ``None`` for
        #: declarations no closed form covers.
        self._halo_plans: Dict[tuple, Optional[tuple]] = {}
        nodes = comm.cluster.nodes
        #: Participant NIC pipes (tx, rx per rank), checked idle (and
        #: equally fast) at every decision.
        self._pipes = [
            link
            for n in (comm.node_of_rank(i) for i in range(comm.size))
            for link in (nodes[n].nic_tx, nodes[n].nic_rx)
        ]
        #: Collectives resolved analytically instead of message-by-message.
        self.collectives_short_circuited = 0
        #: Collectives whose decision fell back to the message schedule.
        self.collectives_declined = 0
        #: Halos resolved analytically.
        self.halos_short_circuited = 0
        #: Halos whose decision fell back to the message schedule.
        self.halos_declined = 0
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
        self, kind: str, rank: int, op: int, shape: tuple
    ) -> Optional[Event]:
        """Join operation ``op`` of ``kind``.

        For a collective, ``shape`` holds the per-round sizes: round *r*
        has every rank send one ``shape[r]``-byte message, and every rank
        must pass the same ``shape``.  For a :data:`HALO`, ``shape`` is
        this rank's sends ``((neighbour, nbytes), ...)``: it sends
        ``nbytes`` to each neighbour and receives one message from each.

        Returns the event to wait on — it fires with ``None`` at the
        closed-form completion time, or with :data:`DECLINED` at the
        decision instant — or ``None`` when the operation is declined
        already (or on the spot, with a message of the communicator
        still undelivered) and this rank goes straight to messages.
        """
        p = self._p
        sess = self._sessions.get(op)
        if sess is None:
            sess = self._sessions[op] = _Session(kind, shape, p)
            if self.comm._in_flight:
                self._decline(sess)
            else:
                self._env.at_end_of_instant(lambda: self._decide(op))
        elif sess.kind != kind or (kind != HALO and sess.shape != shape):
            raise SimulationError(
                f"collective fast path: op {op} joined as {kind} with "
                f"sizes {shape}, but as {sess.kind} with sizes "
                f"{sess.shape} by another rank"
            )
        if sess.shapes[rank] is not None:
            raise SimulationError(
                f"collective fast path: rank {rank} joined op {op} twice"
            )
        sess.shapes[rank] = shape
        sess.order.append(rank)
        if sess.declined:
            if len(sess.order) == p:
                del self._sessions[op]
            return None
        ev = Event(self._env)
        sess.events.append(ev)
        return ev

    def _decide(self, op: int) -> None:
        sess = self._sessions[op]
        if len(sess.order) == self._p:
            del self._sessions[op]
            if self._quiet():
                if sess.kind == HALO:
                    t = self._halo_time(sess)
                else:
                    t = self._collective_time(sess)
                if t is not None:
                    self._complete(sess, t)
                    return
        self._decline(sess)

    def _decline(self, sess: _Session) -> None:
        sess.declined = True
        if sess.kind == HALO:
            self.halos_declined += 1
        else:
            self.collectives_declined += 1
        for ev in sess.events:
            ev.succeed(DECLINED)

    def _quiet(self) -> bool:
        """No message of the communicator undelivered, and every
        participant NIC pipe idle at one rate."""
        if self.comm._in_flight:
            return False
        pipes = self._pipes
        bw = pipes[0].bandwidth
        for link in pipes:
            if link._f_remaining or link.bandwidth != bw:
                return False
        return True

    def _collective_time(self, sess: _Session) -> Optional[float]:
        """The lockstep recurrence over the collective's rounds: each
        round's flows run alone (``n = 1``) on their pipes."""
        comm = self.comm
        perf = comm.perf
        link = self._pipes[0]
        o_mpi = perf.inter.per_byte_overhead
        t = comm.env.now
        for size in sess.shape:
            t = lockstep_finish(
                t + perf.message_latency(False, size),
                (size * o_mpi) * link.per_byte_overhead, 1, link.bandwidth,
            )
            if t is None:
                return None
        return t

    def _halo_time(self, sess: _Session) -> Optional[float]:
        """The halo's one finish time (see the module docstring), or
        ``None`` when it has none."""
        key = tuple(sess.shapes)
        plans = self._halo_plans
        if key in plans:
            plan = plans[key]
        else:
            plan = plans[key] = _halo_plan(sess.shapes)
        if plan is None:
            return None
        classes, groups = plan
        perf = self.comm.perf
        link = self._pipes[0]
        o_mpi = perf.inter.per_byte_overhead
        now = self.comm.env.now
        finish = []
        for n, size in classes:
            t = lockstep_finish(
                now + perf.message_latency(False, size),
                (size * o_mpi) * link.per_byte_overhead, n, link.bandwidth,
            )
            if t is None:
                return None
            finish.append(t)
        end = None
        for group in groups:
            t = max(finish[c] for c in group)
            if end is None:
                end = t
            elif t != end:
                return None  # an early finisher could load a busy pipe
        return end

    def _complete(self, sess: _Session, t: float) -> None:
        """Account the operation's messages and resume its ranks at
        ``t``."""
        comm = self.comm
        acc = comm.bytes_sent
        msgs = 0
        # One add per message in send order, as isend accumulates: a
        # single multiply-add can differ in the last ulp.
        if sess.kind == HALO:
            shapes = sess.shapes
            for rank in sess.order:
                for _, nbytes in shapes[rank]:
                    acc += nbytes
                    msgs += 1
            self.halos_short_circuited += 1
        else:
            p = self._p
            for size in sess.shape:
                for _ in range(p):
                    acc += size
            msgs = p * len(sess.shape)
            self.collectives_short_circuited += 1
        comm.bytes_sent = acc
        comm.messages_sent += msgs
        comm.internode_messages += msgs  # one rank per node: all cross
        self.messages_modelled += msgs
        schedule_at = comm.env._schedule_at
        for ev in sess.events:
            ev._value = None  # succeeds at the exact absolute time
            schedule_at(ev, t)
