"""The simulated communicator.

Each endpoint has an indexed :class:`~repro.mpi.matching.MessageQueue`;
``isend`` drives a flat callback *delivery chain* that pays the
per-message latency, streams the bytes through the cluster's fair-share
links, and then deposits the message; ``recv`` blocks on a
``(source, tag)``-indexed get.

Semantics match a rendezvous-free eager MPI: a send completes when the
payload has been delivered, receives match by (src, tag) with FIFO order
per pair, and ``ANY_SOURCE``/``ANY_TAG`` wildcards are supported.

Hot path design.  The seed implementation spawned one generator
:class:`~repro.des.engine.Process` per message and matched receives with
a predicate scan over a shared :class:`~repro.des.channels.Store`.  At
paper scale (ring collectives are O(p²) messages) the generator frames,
per-stage :class:`Timeout`/``put`` events and linear scans dominated the
run time.  The chain here keeps every simulated result identical to
that implementation while removing the allocations:

- one pooled :class:`_Delivery` per in-flight message (recycled on
  completion), holding one reusable :class:`_ChainTimer` that serves
  both Docker bridge CPU stages and the bridge deposit relay;
- the latency stages of sends ending at the same instant share one
  pooled :class:`_LatencyTimer`;
- link segments (NIC tx/rx, uplinks) joined by a countdown callback
  instead of an :class:`~repro.des.events.AllOf`;
- ``sendrecv`` joins its two halves with the allocation-light
  :class:`_Join2` instead of a results-dict condition event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.des.events import PENDING, Event
from repro.hardware.network import BRIDGE_CPU_PER_MESSAGE
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Message
from repro.mpi.fastpath import CollectiveFastPath
from repro.mpi.matching import MessageQueue
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment
    from repro.hardware.cluster import Cluster

__all__ = ["ANY_SOURCE", "ANY_TAG", "SimComm"]


class _ChainTimer(Event):
    """A reusable timeout for one delivery chain.

    The chain's stages are strictly sequential, so a single event object
    can serve every bridge stage of a message (both CPU stages and the
    deposit relay): the chain re-arms it by assigning the next stage's
    (persistent, single-element) callback list and pushing it back on
    the queue.  Its value is permanently ``None``/ok — the stage
    callbacks ignore it.
    """

    __slots__ = ()

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self._value = None  # never PENDING: armed/re-armed manually


class _Join2(Event):
    """Fires when both child events have fired — a two-event ``AllOf``
    without the results dict, for the ``sendrecv`` hot path.

    Children must be freshly created (not yet processed) events of the
    same environment.  Failure semantics mirror :class:`AllOf`: the first
    failing child fails the join with its exception (defusing the child);
    later children are defused silently.
    """

    __slots__ = ("_remaining",)

    def __init__(self, env: "Environment", a: Event, b: Event) -> None:
        super().__init__(env)
        self._remaining = 2
        a.callbacks.append(self._child_fired)
        b.callbacks.append(self._child_fired)

    def _child_fired(self, ev: Event) -> None:
        if self._value is not PENDING:
            if not ev._ok:
                ev.defuse()
            return
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._value = None
            self.env._schedule(self)


class _LatencyTimer(Event):
    """A pooled shared timer for one latency-stage *batch*.

    Every message whose fixed latency stage ends at the same instant
    shares one timer: the communicator buckets chains by their absolute
    stage-end time and arms a single event per distinct time.  Halo
    exchanges and collective rounds are issued in lockstep bursts, so a
    burst of ``k`` messages costs one event pop instead of ``k``.
    Within a batch the chains advance in send order — the same relative
    order the per-message timers had, so bridge requests made from one
    batch keep their FIFO order.  For what else same-instant ordering
    decides on bridge clusters, see :class:`_Delivery`.
    """

    __slots__ = ("comm", "when", "_cbs")

    def __init__(self, comm: "SimComm") -> None:
        super().__init__(comm.env)
        self._value = None  # never PENDING: armed manually on reuse
        self.comm = comm
        self.when = 0.0
        self._cbs = [self._fire]

    def _fire(self, _ev: Event) -> None:
        comm = self.comm
        chains = comm._lat_buckets.pop(self.when)
        comm._lat_timer_pool.append(self)
        for chain in chains:
            chain._after_latency()


class _Delivery:
    """One in-flight message's delivery chain (pooled, allocation-free).

    Stages, with the delays of the seed's per-message generator:

    1. per-message latency (:meth:`MpiPerf.message_latency`), batched
       per instant by :class:`_LatencyTimer`;
    2. [bridge path only] source node's serialized softirq pipeline:
       FIFO slot, ``BRIDGE_CPU_PER_MESSAGE``, release;
    3. link segments — shm for same-node, else NIC tx+rx (and switch
       uplinks) carrying ``nbytes * per_byte_overhead`` — joined by
       countdown;
    4. [bridge path only] destination node's pipeline, as (2);
    5. ``mpi.deliver`` trace record, deposit into the destination's
       :class:`MessageQueue` (scheduling any waiting receive *before*
       the send-done event), recycle.

    None of the chain's events can fail (links and bridge requests only
    succeed), so there is no failure plumbing.

    **Bridge clusters.**  Docker's bridge makes each node's softirq
    pipeline a FIFO resource, so the relative order of same-instant
    events across chains decides which message enters a pipeline first.
    Two stages keep that order as the pinned Docker results need it:

    - *Event-per-segment completions* (``cluster.transfer_segments``):
      each segment completion is its own event pop rather than a
      callback run inside the link wake-up.  Over 500 random Docker
      specs, ``transfer_cb`` changed the trace (same-instant record
      order) of 40 of the 244 traced ones and the result of one run
      under a link-partition plan.
    - *The deposit relay*: the send-done event fires one zero-delay pop
      after the deposit rather than inline.  Firing it inline changed
      the results of 149 of those 500 specs and the golden Fig. 1
      Docker row.

    Removing either needs an explicit Docker re-baseline.  Bridge-free
    clusters skip both: there every order-sensitive structure
    (fair-share links, per-pair FIFO matching) is invariant to
    same-timestamp ordering.
    """

    __slots__ = (
        "comm",
        "env",
        "msg",
        "done",
        "same_node",
        "_bridged",
        "_src_node",
        "_dst_node",
        "_pending",
        "_req",
        "_timer",
        "_cbs_src_cpu",
        "_cbs_dst_cpu",
        "_cbs_deposit",
        "_cb_granted_src",
        "_cb_granted_dst",
        "_cb_seg",
    )

    def __init__(self, comm: "SimComm") -> None:
        self.comm = comm
        self.env = comm.env
        self.msg: Optional[Message] = None
        self.done: Optional[Event] = None
        self.same_node = False
        self._bridged = comm._bridged
        self._src_node = 0
        self._dst_node = 0
        self._pending = 0
        self._req = None
        self._timer = _ChainTimer(comm.env)
        # Bound methods and single-element callback lists are created once
        # per pooled chain, not once per message.
        self._cbs_src_cpu = [self._src_cpu_done]
        self._cbs_dst_cpu = [self._dst_cpu_done]
        self._cbs_deposit = [self._deposit_done]
        self._cb_granted_src = self._src_granted
        self._cb_granted_dst = self._dst_granted
        self._cb_seg = self._segment_done

    def start(self, msg: Message, same_node: bool) -> Event:
        comm = self.comm
        env = self.env
        self.msg = msg
        self.same_node = same_node
        nodes = comm._node_id
        self._src_node = nodes[msg.src]
        self._dst_node = self._src_node if same_node else nodes[msg.dst]
        done = self.done = Event(env)
        # Batch the latency stage.  Chains whose stage ends at the same
        # absolute time share one pooled _LatencyTimer pop; ``when`` is
        # computed exactly as a per-message timer's ``fl(now + latency)``
        # would be, so stage-end times are unchanged.
        when = env._now + comm.perf.message_latency(same_node, msg.nbytes)
        buckets = comm._lat_buckets
        chains = buckets.get(when)
        if chains is not None:
            chains.append(self)
            return done
        buckets[when] = [self]
        pool = comm._lat_timer_pool
        timer = pool.pop() if pool else _LatencyTimer(comm)
        timer.when = when
        timer.callbacks = timer._cbs
        if when <= env._now:
            env._ring.append(timer)
        else:
            env._wheel.push(when, timer)
        return done

    def _after_latency(self) -> None:
        if self._bridged and not self.same_node:
            bridge = self.comm.cluster.nodes[self._src_node].bridge
            req = self._req = bridge.request()
            req.callbacks.append(self._cb_granted_src)
            return
        self._transfer()

    def _src_granted(self, _ev: Event) -> None:
        timer = self._timer
        timer.callbacks = self._cbs_src_cpu
        env = self.env  # inlined env._schedule(timer, BRIDGE_CPU_PER_MESSAGE)
        when = env._now + BRIDGE_CPU_PER_MESSAGE
        env._wheel.push(when, timer)

    def _src_cpu_done(self, _ev: Event) -> None:
        req = self._req
        self._req = None
        req.resource.release(req)
        self._transfer()

    def _transfer(self) -> None:
        comm = self.comm
        msg = self.msg
        if self.same_node:
            nbytes = msg.nbytes
            dst_node = self._src_node
        else:
            nbytes = msg.nbytes * comm.perf.inter.per_byte_overhead
            dst_node = self._dst_node
        if self._bridged:
            # Event-per-segment completions (see the class note).
            segments = comm.cluster.transfer_segments(
                self._src_node, dst_node, nbytes
            )
            self._pending = len(segments)
            cb = self._cb_seg
            for ev in segments:
                ev.callbacks.append(cb)
            return
        # Event-free segments: completions run inside the link wake-up.
        # Prime the countdown high first — a zero-wire segment completes
        # during transfer_cb itself, before the true count is known.
        self._pending = 1 << 30
        n = comm.cluster.transfer_cb(
            self._src_node, dst_node, nbytes, self._cb_seg
        )
        self._pending -= (1 << 30) - n
        if self._pending == 0:
            self._finish()

    def _segment_done(self, _ev: Event = None) -> None:
        self._pending -= 1
        if self._pending:
            return
        if self._bridged and not self.same_node:
            bridge = self.comm.cluster.nodes[self._dst_node].bridge
            req = self._req = bridge.request()
            req.callbacks.append(self._cb_granted_dst)
            return
        self._finish()

    def _dst_granted(self, _ev: Event) -> None:
        timer = self._timer
        timer.callbacks = self._cbs_dst_cpu
        env = self.env  # inlined env._schedule(timer, BRIDGE_CPU_PER_MESSAGE)
        when = env._now + BRIDGE_CPU_PER_MESSAGE
        env._wheel.push(when, timer)

    def _dst_cpu_done(self, _ev: Event) -> None:
        req = self._req
        self._req = None
        req.resource.release(req)
        self._finish()

    def _finish(self) -> None:
        comm = self.comm
        msg = self.msg
        if comm._trace_deliver:
            comm.tracer.record(
                self.env.now, "mpi.deliver", f"{msg.src}->{msg.dst}",
                tag=msg.tag, nbytes=msg.nbytes,
            )
        comm._in_flight -= 1
        if self._bridged:
            # The deposit relay (see the class note), queued before the
            # deposit wakes any receiver; the send-done event fires when
            # it pops.  The chain is recycled at that pop, not before, so
            # the timer cannot be re-armed while the relay is queued.
            timer = self._timer
            timer.callbacks = self._cbs_deposit
            self.env._ring.append(timer)
            comm._queues[msg.dst].deliver(msg)
            self.msg = None
            return
        done = self.done
        self.msg = None
        self.done = None
        # Deposit first, complete the send second: the receiver's event is
        # scheduled before the sender's waiters run.
        comm._queues[msg.dst].deliver(msg)
        comm._pool.append(self)
        # Fire the send-done event inline rather than round-tripping it
        # through the event queue: on this (bridge-free) path every
        # order-sensitive structure is invariant to same-timestamp
        # ordering — see the class note — so running the waiters now, at
        # the same simulated instant, yields the same trajectory one
        # event pop cheaper.  Sends outnumber every other event source,
        # making this the single largest pop saving.
        done._value = None
        cbs = done.callbacks
        done.callbacks = None
        if cbs:
            if len(cbs) == 1:
                cbs[0](done)
            else:
                for cb in cbs:
                    cb(done)

    def _deposit_done(self, _ev: Event) -> None:
        done = self.done
        self.done = None
        self.comm._pool.append(self)
        done.succeed()


class SimComm:
    """A communicator over a wired cluster.

    Parameters
    ----------
    env / cluster:
        Simulation context; ``cluster.wire_network`` must already have
        been called with the same path as ``perf.path``.
    rankmap:
        Endpoint placement.
    perf:
        Per-message cost model.
    tracer:
        Optional :class:`repro.des.trace.Tracer` receiving ``mpi.send``
        / ``mpi.deliver`` records.
    collective_fastpath:
        Allow the exact analytic collective and halo short-circuit
        (:class:`repro.mpi.fastpath.CollectiveFastPath`) when the static
        gates hold; each collective or halo then decides for itself
        whether to use it.  ``False`` forces every one onto its message
        schedule (the runner passes ``False`` when a fault plan is
        armed).  See ``docs/perf.md``.
    """

    def __init__(
        self,
        env: "Environment",
        cluster: "Cluster",
        rankmap: RankMap,
        perf: MpiPerf,
        tracer=None,
        collective_fastpath: bool = True,
    ) -> None:
        if rankmap.n_nodes > len(cluster.nodes):
            raise ValueError(
                f"rank map needs {rankmap.n_nodes} nodes, cluster has "
                f"{len(cluster.nodes)}"
            )
        self.env = env
        self.cluster = cluster
        self.rankmap = rankmap
        self.perf = perf
        self._queues = [MessageQueue(env) for _ in range(rankmap.n_ranks)]
        #: Free list of recycled delivery chains.
        self._pool: list[_Delivery] = []
        #: Whether chains pass the nodes' bridge pipelines and keep the
        #: bridge ordering stages (see :class:`_Delivery`).  The
        #: cluster's wiring is fixed before communicators exist.
        self._bridged = cluster.nodes[0].bridge is not None
        #: Latency-stage batches: absolute stage-end time -> chains
        #: sharing that instant (see :class:`_LatencyTimer`), plus the
        #: timer free list.
        self._lat_buckets: dict[float, list[_Delivery]] = {}
        self._lat_timer_pool: list[_LatencyTimer] = []
        #: rank -> node id, precomputed (node_of is called four times per
        #: message on the hot path).
        self._node_id = [rankmap.node_of(r) for r in range(rankmap.n_ranks)]
        self.tracer = tracer
        #: Category-filter verdicts, evaluated once: the filter is fixed
        #: at Tracer construction and the tracer at communicator
        #: construction, so the per-message ``wants()`` calls fold into
        #: one attribute test each.
        self._trace_send = tracer is not None and tracer.wants("mpi.send")
        self._trace_deliver = (
            tracer is not None and tracer.wants("mpi.deliver")
        )
        # Traffic accounting for reports/ablations.
        self.messages_sent = 0
        self.bytes_sent = 0.0
        self.internode_messages = 0
        #: Sends where src == dst (counted in messages_sent/bytes_sent,
        #: never in internode_messages; they take the shm path).
        self.self_messages = 0
        #: Messages sent but not yet deposited at their destination
        #: (latency stage included) — the fast path's quiescence check.
        self._in_flight = 0
        #: Analytic collective and halo short-circuit; None when disabled
        #: or when a static gate fails.
        self.fastpath = (
            CollectiveFastPath(self)
            if collective_fastpath and CollectiveFastPath.eligible(self)
            else None
        )

    @property
    def size(self) -> int:
        """Number of endpoints."""
        return self.rankmap.n_ranks

    @property
    def messages_matched_fast(self) -> int:
        """Receives matched through the O(1) exact ``(src, tag)`` index."""
        return sum(q.matched_fast for q in self._queues)

    def node_of_rank(self, rank: int) -> int:
        """Node hosting ``rank``."""
        return self._node_id[rank]

    # -- point to point -----------------------------------------------------------
    def isend(
        self,
        src: int,
        dst: int,
        tag: int,
        nbytes: float,
        payload=None,
    ) -> Event:
        """Non-blocking send; the event fires when the message is delivered."""
        nodes = self._node_id
        if not (0 <= src < len(nodes) and 0 <= dst < len(nodes)):
            self._check_rank(src)
            self._check_rank(dst)
        msg = Message(src, dst, tag, nbytes, payload)
        same_node = src == dst or nodes[src] == nodes[dst]
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self._in_flight += 1
        if src == dst:
            self.self_messages += 1
        elif not same_node:
            self.internode_messages += 1
        if self._trace_send:
            self.tracer.record(
                self.env.now, "mpi.send", f"{src}->{dst}",
                tag=tag, nbytes=nbytes, same_node=same_node,
            )
        pool = self._pool
        chain = pool.pop() if pool else _Delivery(self)
        return chain.start(msg, same_node)

    def send(self, src: int, dst: int, tag: int, nbytes: float, payload=None):
        """Blocking send as a generator: ``yield from comm.send(...)``."""
        yield self.isend(src, dst, tag, nbytes, payload)

    def recv(self, dst: int, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Event yielding the first matching :class:`Message`."""
        self._check_rank(dst)
        return self._queues[dst].get(src, tag)

    def sendrecv(
        self,
        me: int,
        dst: int,
        src: int,
        tag: int,
        nbytes: float,
        payload=None,
    ):
        """Concurrent exchange; generator returning the received message."""
        send_done = self.isend(me, dst, tag, nbytes, payload)
        recv_done = self.recv(me, src, tag)
        yield _Join2(self.env, send_done, recv_done)
        return recv_done.value

    def exchange(
        self,
        me: int,
        dst: int,
        src: int,
        tag: int,
        nbytes: float,
        payload=None,
    ) -> Event:
        """Concurrent exchange as a plain joined event.

        The non-generator :meth:`sendrecv` for callers that discard the
        received message (every collective): identical message schedule,
        no generator frame per round.
        """
        send_done = self.isend(me, dst, tag, nbytes, payload)
        recv_done = self.recv(me, src, tag)
        return _Join2(self.env, send_done, recv_done)

    # -- internals ----------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.rankmap.n_ranks:
            raise ValueError(
                f"rank {rank} out of range [0, {self.rankmap.n_ranks})"
            )

