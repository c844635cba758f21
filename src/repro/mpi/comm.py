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
a predicate scan over a shared ``Store``.  At paper scale (ring
collectives are O(p²) messages) the generator frames, per-stage
:class:`Timeout`/``put`` events and linear scans dominated the run time.  The chain here keeps every simulated result identical to
that implementation while removing the allocations:

- one pooled chain per in-flight message (recycled on completion); on
  Docker's bridge it also holds one reusable :class:`_ChainTimer` that
  serves as its bridge grant, both bridge CPU stages and the deposit
  relay, and one pooled :class:`_SegmentRelay` per link segment;
- the latency stages of sends ending at the same instant share one
  pooled :class:`_LatencyTimer`, which hands each chain straight to
  admission on the links of its cached :meth:`Cluster.route`;
- link segments (NIC tx/rx, uplinks) joined by a countdown callback
  instead of an :class:`~repro.des.events.AllOf`;
- ``sendrecv`` joins its two halves with the allocation-light
  :class:`_Join2` instead of a results-dict condition event.
"""

from __future__ import annotations

from math import inf
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

#: Countdown primer: a zero-wire segment completes during its own
#: admission, before the chain knows how many segments follow.
_PRIME = 1 << 30


class _ChainTimer(Event):
    """A reusable event for one bridged delivery chain.

    The chain's stages are strictly sequential, so a single event object
    can serve every bridge stage of a message: the grant of a node's
    softirq FIFO, both CPU stages and the deposit relay.  The chain
    re-arms it by assigning the next stage's (persistent,
    single-element) callback list and pushing it back on the queue.  Its
    value is permanently ``None``/ok — the stage callbacks ignore it.
    """

    __slots__ = ()

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self._value = None  # never PENDING: armed/re-armed manually


class _SegmentRelay(Event):
    """One link segment's completion event on the bridged path.

    Pooled per chain (one per segment of a route).  The link calls
    :attr:`notify` on completion, which appends the relay to the
    now-ring exactly where :meth:`Event.succeed` appended a fresh
    per-segment :class:`Event`, so the completion is its own event pop
    (see :class:`_BridgedDelivery`).
    """

    __slots__ = ("_cbs", "notify")

    def __init__(self, chain: "_BridgedDelivery") -> None:
        super().__init__(chain.env)
        self._value = None  # never PENDING: armed manually on reuse
        self._cbs = [chain._relay_popped]
        self.notify = self._fire

    def _fire(self) -> None:
        self.callbacks = self._cbs
        self.env._ring.append(self)


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
    decides on bridge clusters, see :class:`_BridgedDelivery`.
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
    """One in-flight message's delivery chain on a bridge-free cluster
    (pooled, allocation-free).

    Stages, with the delays of the seed's per-message generator:

    1. per-message latency (:meth:`MpiPerf.message_latency`), batched
       per instant by :class:`_LatencyTimer`;
    2. link segments — shm for same-node, else NIC tx+rx (and switch
       uplinks) carrying ``nbytes * per_byte_overhead`` — admitted
       directly on the links of the cached route; a same-node message
       finishes from the shm link's completion, an inter-node one from
       a countdown over its segments;
    3. ``mpi.deliver`` trace record, deposit into the destination's
       :class:`MessageQueue` (scheduling any waiting receive *before*
       the send-done event), recycle.

    None of the chain's events can fail (links only succeed), so there
    is no failure plumbing.  Completions run inside the link wake-up and
    the send-done event fires inline: every order-sensitive structure on
    this path (fair-share links, per-pair FIFO matching) is invariant to
    same-timestamp ordering.
    """

    __slots__ = (
        "comm",
        "env",
        "msg",
        "done",
        "same_node",
        "_src_node",
        "_dst_node",
        "_pending",
        "_cb_seg",
        "_cb_finish",
    )

    def __init__(self, comm: "SimComm") -> None:
        self.comm = comm
        self.env = comm.env
        self.msg: Optional[Message] = None
        self.done: Optional[Event] = None
        self.same_node = False
        self._src_node = 0
        self._dst_node = 0
        self._pending = 0
        # Bound methods are created once per pooled chain, not once per
        # message.
        self._cb_seg = self._segment_done
        self._cb_finish = self._finish

    def _after_latency(self) -> None:
        msg = self.msg
        src = self._src_node
        if self.same_node:
            shm = self.comm._shm[src]
            shm._admit(msg.nbytes * shm.per_byte_overhead, self._cb_finish)
            return
        comm = self.comm
        dst = self._dst_node
        links = comm._routes.get((src, dst)) or comm.cluster.route(src, dst)
        nbytes = msg.nbytes * comm._inter_overhead
        self._pending = _PRIME
        cb = self._cb_seg
        for link in links:
            link._admit(nbytes * link.per_byte_overhead, cb)
        self._pending -= _PRIME - len(links)
        if self._pending == 0:
            self._finish()

    def _segment_done(self) -> None:
        self._pending -= 1
        if self._pending == 0:
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
        done = self.done
        self.msg = None
        self.done = None
        # Deposit first, complete the send second: the receiver's event is
        # scheduled before the sender's waiters run.
        comm._queues[msg.dst].deliver(msg)
        comm._pool.append(self)
        # Fire the send-done event inline rather than round-tripping it
        # through the event queue: on this (bridge-free) path running
        # the waiters now, at the same simulated instant, yields the same
        # trajectory one event pop cheaper.  Sends outnumber every other
        # event source, making this the single largest pop saving.
        done._value = None
        cbs = done.callbacks
        done.callbacks = None
        if cbs:
            if len(cbs) == 1:
                cbs[0](done)
            else:
                for cb in cbs:
                    cb(done)


class _BridgedDelivery(_Delivery):
    """A delivery chain on a Docker-bridged cluster.

    Stages, between the latency stage and the deposit of
    :class:`_Delivery`:

    - source node's serialized softirq pipeline: FIFO slot,
      ``BRIDGE_CPU_PER_MESSAGE``, release (inter-node messages only);
    - link segments, each completing through its own event pop;
    - destination node's pipeline, as the source's.

    Docker's bridge makes each node's softirq pipeline a one-slot FIFO
    (:class:`~repro.hardware.cluster.BridgeFifo`), so the relative order
    of same-instant events across chains decides which message enters a
    pipeline first.  Two stages keep that order as the pinned Docker
    results need it:

    - *Event-per-segment completions*: each segment completion is its
      own event pop (a pooled :class:`_SegmentRelay`) rather than a
      callback run inside the link wake-up.  Over 500 random Docker
      specs, in-wake callbacks changed the trace (same-instant record
      order) of 40 of the 244 traced ones and the result of one run
      under a link-partition plan.
    - *The deposit relay*: the send-done event fires one zero-delay pop
      after the deposit rather than inline.  Firing it inline changed
      the results of 149 of those 500 specs and the golden Fig. 1
      Docker row.

    Removing either needs an explicit Docker re-baseline.  Every event
    is a pooled object of the chain except the send-done event, and each
    is pushed where the seed's path pushed its own event, so the event
    count and order are the seed's.
    """

    __slots__ = (
        "_timer",
        "_relays",
        "_cbs_src_granted",
        "_cbs_dst_granted",
        "_cbs_src_cpu",
        "_cbs_dst_cpu",
        "_cbs_deposit",
    )

    def __init__(self, comm: "SimComm") -> None:
        super().__init__(comm)
        self._timer = _ChainTimer(comm.env)
        self._relays: list[_SegmentRelay] = []
        # Single-element callback lists are created once per pooled
        # chain, not once per message.
        self._cbs_src_granted = [self._src_granted]
        self._cbs_dst_granted = [self._dst_granted]
        self._cbs_src_cpu = [self._src_cpu_done]
        self._cbs_dst_cpu = [self._dst_cpu_done]
        self._cbs_deposit = [self._deposit_done]

    def _after_latency(self) -> None:
        if self.same_node:
            self._transfer()
            return
        # The grant is this chain's own timer, appended to the now-ring
        # when the slot is (or becomes) free.
        timer = self._timer
        timer.callbacks = self._cbs_src_granted
        self.comm._bridges[self._src_node].acquire(timer)

    def _src_granted(self, timer: Event) -> None:
        timer.callbacks = self._cbs_src_cpu
        env = self.env  # inlined env._schedule(timer, BRIDGE_CPU_PER_MESSAGE)
        env._wheel.push(env._now + BRIDGE_CPU_PER_MESSAGE, timer)

    def _src_cpu_done(self, _ev: Event) -> None:
        self.comm._bridges[self._src_node].release()
        self._transfer()

    def _transfer(self) -> None:
        comm = self.comm
        msg = self.msg
        src = self._src_node
        if self.same_node:
            dst = src
            nbytes = msg.nbytes
        else:
            dst = self._dst_node
            nbytes = msg.nbytes * comm._inter_overhead
        links = comm._routes.get((src, dst)) or comm.cluster.route(src, dst)
        relays = self._relays
        while len(relays) < len(links):
            relays.append(_SegmentRelay(self))
        self._pending = len(links)
        for link, relay in zip(links, relays):
            link._admit(nbytes * link.per_byte_overhead, relay.notify)

    def _relay_popped(self, _ev: Event) -> None:
        self._pending -= 1
        if self._pending:
            return
        if self.same_node:
            self._finish()
            return
        timer = self._timer
        timer.callbacks = self._cbs_dst_granted
        self.comm._bridges[self._dst_node].acquire(timer)

    def _dst_granted(self, timer: Event) -> None:
        timer.callbacks = self._cbs_dst_cpu
        env = self.env  # inlined env._schedule(timer, BRIDGE_CPU_PER_MESSAGE)
        env._wheel.push(env._now + BRIDGE_CPU_PER_MESSAGE, timer)

    def _dst_cpu_done(self, _ev: Event) -> None:
        self.comm._bridges[self._dst_node].release()
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
        # The deposit relay (see the class note), queued before the
        # deposit wakes any receiver; the send-done event fires when it
        # pops.  The chain is recycled at that pop, not before, so the
        # timer cannot be re-armed while the relay is queued.
        timer = self._timer
        timer.callbacks = self._cbs_deposit
        self.env._ring.append(timer)
        comm._queues[msg.dst].deliver(msg)
        self.msg = None

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
        #: Each node's bridge FIFO; the chains pass them, and keep the
        #: bridge ordering stages, when the cluster is bridged (see
        #: :class:`_BridgedDelivery`).  The cluster's wiring is fixed
        #: before communicators exist, and a requeued job's communicator
        #: shares the FIFOs with the crashed attempt's draining chains.
        self._bridges = [node.bridge for node in cluster.nodes]
        self._chain_cls = (
            _BridgedDelivery if self._bridges[0] is not None else _Delivery
        )
        #: The links chains admit onto: the cluster's route cache (filled
        #: by :meth:`Cluster.route`, cleared in place by
        #: ``wire_network``) and each node's shm link.
        self._routes = cluster._routes
        self._shm = [node.shm for node in cluster.nodes]
        self._inter_overhead = perf.inter.per_byte_overhead
        #: Latency of an eager (at most rendezvous-threshold) message,
        #: by whether it stays on one node — ``message_latency``'s own
        #: expression, evaluated once.
        self._rendezvous = perf.rendezvous_threshold
        self._lat_shm = perf.message_latency(True)
        self._lat_inter = perf.message_latency(False)
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
        # Written so that NaN fails the check.
        if not 0 <= nbytes < inf:
            raise ValueError(f"nbytes must be >= 0 and finite, got {nbytes}")
        msg = Message(src, dst, tag, nbytes, payload)
        src_node = nodes[src]
        dst_node = nodes[dst]
        same_node = src_node == dst_node
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self._in_flight += 1
        if src == dst:
            self.self_messages += 1
        elif not same_node:
            self.internode_messages += 1
        env = self.env
        if self._trace_send:
            self.tracer.record(
                env.now, "mpi.send", f"{src}->{dst}",
                tag=tag, nbytes=nbytes, same_node=same_node,
            )
        pool = self._pool
        chain = pool.pop() if pool else self._chain_cls(self)
        chain.msg = msg
        chain.same_node = same_node
        chain._src_node = src_node
        chain._dst_node = dst_node
        done = chain.done = Event(env)
        # Batch the latency stage.  Chains whose stage ends at the same
        # absolute time share one pooled _LatencyTimer pop; ``when`` is
        # computed exactly as a per-message timer's ``fl(now + latency)``
        # would be, so stage-end times are unchanged.
        if nbytes > self._rendezvous:
            when = env._now + self.perf.message_latency(same_node, nbytes)
        elif same_node:
            when = env._now + self._lat_shm
        else:
            when = env._now + self._lat_inter
        buckets = self._lat_buckets
        chains = buckets.get(when)
        if chains is not None:
            chains.append(chain)
            return done
        buckets[when] = [chain]
        tpool = self._lat_timer_pool
        timer = tpool.pop() if tpool else _LatencyTimer(self)
        timer.when = when
        timer.callbacks = timer._cbs
        if when <= env._now:
            env._ring.append(timer)
        else:
            env._wheel.push(when, timer)
        return done

    def send(self, src: int, dst: int, tag: int, nbytes: float, payload=None):
        """Blocking send as a generator: ``yield from comm.send(...)``."""
        yield self.isend(src, dst, tag, nbytes, payload)

    def recv(self, dst: int, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Event yielding the first matching :class:`Message`."""
        queues = self._queues
        if not 0 <= dst < len(queues):
            self._check_rank(dst)
        return queues[dst].get(src, tag)

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
        # ``isend`` has bounds-checked ``me``.
        recv_done = self._queues[me].get(src, tag)
        return _Join2(self.env, send_done, recv_done)

    # -- internals ----------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.rankmap.n_ranks:
            raise ValueError(
                f"rank {rank} out of range [0, {self.rankmap.n_ranks})"
            )
