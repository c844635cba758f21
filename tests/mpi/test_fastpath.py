"""Fast-path parity: closed form vs the simulated schedule.

The analytic short-circuit is on by default because these tests prove it
*bit-identical*: for every kept collective kind, and for lockstep halos,
the per-rank completion times of the closed form equal the
message-by-message simulation exactly (``==`` on floats, no tolerance),
and so do the traffic counters.  Every shape the fast path must not
model — staggered entries, busy NICs, messages still in flight, trees,
non-power-of-two allreduce, unequal flows on one pipe, unequal finish
times — is checked to decline (or never join) and to match the message
schedule.
"""

import pytest

from repro.des import Environment
from repro.des.engine import SimulationError
from repro.des.events import JoinAll
from repro.des.trace import Tracer
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.hardware.topology import NON_BLOCKING
from repro.mpi import collectives
from repro.mpi.comm import SimComm
from repro.mpi.fastpath import DECLINED, HALO, _halo_plan
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap

PARITY_SIZES = [2, 3, 4, 5, 6, 7, 8, 9, 16]


def _build(p, fastpath=True, path=NetworkPath.HOST_NATIVE, tracer=None,
           spec=catalog.MARENOSTRUM4, n_ranks=None):
    env = Environment()
    cluster = Cluster(env, spec, num_nodes=p)
    cluster.wire_network(path)
    rankmap = RankMap(n_ranks=n_ranks or p, n_nodes=p)
    perf = MpiPerf.for_fabric(spec.fabric, path)
    comm = SimComm(env, cluster, rankmap, perf, tracer=tracer,
                   collective_fastpath=fastpath)
    return env, comm


def _run(p, fn, fastpath, stagger=0.0, tracer=None, before=None,
         **kwargs):
    """Run one collective on all ranks; returns per-rank finish times.

    ``before(env, comm)`` runs first, at t=0, to start outside traffic.
    """
    env, comm = _build(p, fastpath, tracer=tracer)
    if before is not None:
        before(env, comm)
    finish = [None] * p

    def body(rank):
        if stagger:
            yield env.timeout(rank * stagger)
        yield from fn(comm, rank, op=1, **kwargs)
        finish[rank] = env.now

    for r in range(p):
        env.process(body(r))
    env.run()
    return finish, comm


def _counts(fast_comm):
    fp = fast_comm.fastpath
    return fp.collectives_short_circuited, fp.collectives_declined


def _same_traffic(fast_comm, real_comm):
    assert fast_comm.messages_sent == real_comm.messages_sent
    assert fast_comm.internode_messages == real_comm.internode_messages
    assert fast_comm.bytes_sent == real_comm.bytes_sent  # exact


def _parity(p, fn, **kwargs):
    """(fast comm) after asserting times and traffic equal the message
    schedule's."""
    real, real_comm = _run(p, fn, fastpath=False, **kwargs)
    fast, fast_comm = _run(p, fn, fastpath=True, **kwargs)
    assert fast == real  # exact float equality, every rank
    _same_traffic(fast_comm, real_comm)
    return fast_comm


@pytest.mark.parametrize("p", PARITY_SIZES)
@pytest.mark.parametrize(
    "fn,kwargs",
    [
        (collectives.allgather, {"nbytes_per_rank": 40_000}),
        (collectives.allreduce_ring, {"nbytes": 300_000}),
    ],
    ids=["allgather", "allreduce_ring"],
)
def test_closed_form_is_bit_identical(p, fn, kwargs):
    fast_comm = _parity(p, fn, **kwargs)
    assert _counts(fast_comm) == (1, 0)
    assert fast_comm.fastpath.messages_modelled == fast_comm.messages_sent


@pytest.mark.parametrize("p", [2, 3, 5, 8, 16])
def test_closed_form_staggered_entries(p):
    """Ranks entering at different instants: the first instant's
    decision declines, everyone runs the message ring, times match."""
    fast_comm = _parity(p, collectives.allgather, stagger=3.7e-5,
                        nbytes_per_rank=25_000)
    assert _counts(fast_comm) == (0, 1)


@pytest.mark.parametrize("p", [3, 8])
def test_collective_trace_records_identical(p):
    """``mpi.collective`` records (the category both paths emit) match,
    and a tracer that wants only them leaves the fast path on."""

    def records(fastpath):
        tracer = Tracer(categories=("mpi.collective",))
        _, comm = _run(p, collectives.allreduce_ring, fastpath=fastpath,
                       tracer=tracer, nbytes=64_000)
        assert (comm.fastpath is not None) == fastpath
        return [(r.time, r.label, dict(r.data)) for r in tracer.records]

    assert records(True) == records(False)


@pytest.mark.parametrize("category", ["mpi.send", "mpi.deliver"])
def test_message_tracer_disables_fast_path(category):
    """A traced run records every message, so it never short-circuits."""
    _, comm = _build(4, tracer=Tracer(categories=(category,)))
    assert comm.fastpath is None


@pytest.mark.parametrize("p", [2, 4, 8, 16])
def test_lockstep_allreduce_bit_identical(p):
    """Recursive-doubling allreduce, all ranks entering together: the
    lockstep closed form equals the simulated schedule exactly."""
    fast_comm = _parity(p, collectives.allreduce, nbytes=120_000)
    assert _counts(fast_comm) == (1, 0)


@pytest.mark.parametrize("p", [5, 7, 9, 11])
def test_lockstep_skips_general_non_power_of_two(p):
    """Non-power-of-two allreduce never joins the fast path."""
    fast_comm = _parity(p, collectives.allreduce, nbytes=50_000)
    assert _counts(fast_comm) == (0, 0)


@pytest.mark.parametrize("p", [3, 6, 12])
def test_fold_allreduce_bit_identical(p):
    """p = 3·2^k allreduce: the fold finishes paired ranks one hop late,
    so there is no closed form — it runs as messages."""
    fast_comm = _parity(p, collectives.allreduce, nbytes=50_000)
    assert _counts(fast_comm) == (0, 0)


@pytest.mark.parametrize("p", [3, 6])
@pytest.mark.parametrize("nbytes", [2_000, 120_000])
def test_fold_allreduce_sizes_also_exact(p, nbytes):
    fast_comm = _parity(p, collectives.allreduce, nbytes=nbytes)
    assert _counts(fast_comm) == (0, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 8, 12])
@pytest.mark.parametrize("root", [0, 1])
def test_tree_bcast_bit_identical(p, root):
    """Binomial broadcast finishes ranks at different times: it never
    joins the fast path and matches the simulated tree."""
    if root >= p:
        pytest.skip("root outside communicator")
    fast_comm = _parity(p, collectives.bcast, nbytes=75_000, root=root)
    assert _counts(fast_comm) == (0, 0)


@pytest.mark.parametrize("p", [3, 6, 8])
def test_tree_bcast_staggered_entries(p):
    fast_comm = _parity(p, collectives.bcast, stagger=4.3e-5,
                        nbytes=30_000)
    assert _counts(fast_comm) == (0, 0)


def test_lockstep_staggered_entries_decline():
    """Staggered entries can overlap flows across rounds: the collective
    declines at the first instant and every rank runs the messages."""
    for nbytes in (10_000, 300_000 / 7):
        fast_comm = _parity(4, collectives.allreduce, stagger=1e-5,
                            nbytes=nbytes)
        assert _counts(fast_comm) == (0, 1)


def test_busy_nic_declines():
    """Another communicator's traffic on a participating NIC at the
    decision instant (invisible to this communicator's undelivered
    count) declines the closed form; times equal the contended
    schedule."""

    def noisy(env, comm):
        # A long point-to-point transfer overlapping the collective.
        other = SimComm(env, comm.cluster, comm.rankmap, comm.perf,
                        collective_fastpath=False)
        other.isend(0, 1, tag=99, nbytes=50_000_000)

    def coll(comm, rank, op, **kwargs):
        yield comm.env.timeout(1e-4)  # enter while the p2p flow is active
        assert comm.cluster.nodes[0].nic_tx.active_flows == 1
        yield from collectives.allgather(comm, rank, op, **kwargs)

    fast_comm = _parity(3, coll, before=noisy, nbytes_per_rank=1000)
    assert _counts(fast_comm) == (0, 1)


def test_uneven_nic_rates_decline():
    """One slower NIC breaks the single-rate closed form: decline."""

    def degrade(env, comm):
        comm.cluster.nodes[2].nic_rx.set_bandwidth_factor(0.5)

    fast_comm = _parity(4, collectives.allreduce, before=degrade,
                        nbytes=120_000)
    assert _counts(fast_comm) == (0, 1)


def test_isend_in_latency_stage_declines():
    """Regression: a message still in its latency stage occupies no NIC
    yet, so only the communicator's undelivered count can see it.  The
    collective must decline rather than model an idle network."""

    def before(env, comm):
        comm.isend(0, 1, tag=99, nbytes=4_000_000)  # posted, not awaited

    fast_comm = _parity(4, collectives.allreduce, before=before,
                        nbytes=120_000)
    assert _counts(fast_comm) == (0, 1)
    # The overlap is real: without the p2p message the schedule differs.
    quiet, _ = _run(4, collectives.allreduce, fastpath=False,
                    nbytes=120_000)
    loud, _ = _run(4, collectives.allreduce, fastpath=False,
                   before=before, nbytes=120_000)
    assert loud != quiet


def test_late_joiners_go_straight_to_messages():
    """After a decline, ranks joining at later instants never wait on the
    fast path (no event), and the session is dropped once all joined."""
    env, comm = _build(4)
    fp = comm.fastpath
    first = fp.join("allreduce", 0, 5, (16.0, 16.0))
    assert first is not None
    env.run()  # the decision: only one of four joined
    assert first.value is DECLINED and fp.collectives_declined == 1
    for rank in (1, 2, 3):
        assert fp.join("allreduce", rank, 5, (16.0, 16.0)) is None
    assert fp._sessions == {}


def test_join_mismatch_is_an_invariant_error():
    env, comm = _build(4)
    fp = comm.fastpath
    fp.join("allreduce", 0, 5, (16.0, 16.0))
    with pytest.raises(SimulationError, match="joined as"):
        fp.join("allgather", 1, 5, (16.0, 16.0))
    with pytest.raises(SimulationError, match="twice"):
        fp.join("allreduce", 0, 5, (16.0, 16.0))


def test_rendezvous_sizes_also_exact():
    """Payloads over the rendezvous threshold change the latency model;
    the closed form uses the same ``message_latency`` and stays exact."""
    fast_comm = _parity(4, collectives.allgather, nbytes_per_rank=200_000)
    assert _counts(fast_comm) == (1, 0)


def test_ineligible_bridge_path():
    env, comm = _build(4, path=NetworkPath.BRIDGE_NAT)
    assert comm.fastpath is None


def test_ineligible_multiple_ranks_per_node():
    env, comm = _build(2, n_ranks=4)
    assert comm.fastpath is None


def test_ineligible_switch_topology():
    env = Environment()
    spec = catalog.MARENOSTRUM4
    cluster = Cluster(env, spec, num_nodes=4)
    cluster.wire_network(NetworkPath.HOST_NATIVE, topology=NON_BLOCKING)
    comm = SimComm(
        env, cluster, RankMap(n_ranks=4, n_nodes=4),
        MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE),
    )
    assert comm.fastpath is None


def test_ineligible_single_rank():
    env, comm = _build(1)
    assert comm.fastpath is None


def test_on_by_default():
    env = Environment()
    spec = catalog.MARENOSTRUM4
    cluster = Cluster(env, spec, num_nodes=4)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    rankmap = RankMap(n_ranks=4, n_nodes=4)
    perf = MpiPerf.for_fabric(spec.fabric, NetworkPath.HOST_NATIVE)
    assert SimComm(env, cluster, rankmap, perf).fastpath is not None
    assert SimComm(env, cluster, rankmap, perf,
                   collective_fastpath=False).fastpath is None


# -- lockstep halos ---------------------------------------------------------


def _chain(p, nbytes):
    """Per-rank halo sends of a 1-D chain: ``nbytes`` to each neighbour."""
    return [
        tuple((nb, nbytes) for nb in (r - 1, r + 1) if 0 <= nb < p)
        for r in range(p)
    ]


def _halo(comm, rank, op, sends):
    """One blocking halo as ``PhasedApp`` lowers it: offer it to the fast
    path; on a decline (or without one) post the sends and receives and
    wait for all of them."""
    fp = comm.fastpath
    ev = fp.join(HALO, rank, op, sends) if fp is not None else None
    if ev is None or (yield ev) is DECLINED:
        pending = []
        for nb, nbytes in sends:
            pending.append(comm.isend(rank, nb, op, nbytes))
            pending.append(comm.recv(rank, nb, op))
        yield JoinAll(comm.env, pending)


def _run_halo(p, sends, fastpath, stagger=0.0, before=None, rounds=1):
    """Per-rank finish times of ``rounds`` halos, with an allreduce
    between consecutive ones, and the communicator."""
    env, comm = _build(p, fastpath)
    if before is not None:
        before(env, comm)
    finish = [None] * len(sends)

    def body(rank):
        if stagger:
            yield env.timeout(rank * stagger)
        for r in range(rounds):
            yield from _halo(comm, rank, 10 * r + 1, sends[rank])
            if r + 1 < rounds:
                yield from collectives.allreduce(comm, rank, 10 * r + 2,
                                                 nbytes=16.0)
        finish[rank] = env.now

    for r in range(len(sends)):
        env.process(body(r))
    env.run()
    return finish, comm


def _halo_parity(p, sends, **kwargs):
    real, real_comm = _run_halo(p, sends, fastpath=False, **kwargs)
    fast, fast_comm = _run_halo(p, sends, fastpath=True, **kwargs)
    assert None not in real
    assert fast == real  # exact float equality, every endpoint
    _same_traffic(fast_comm, real_comm)
    return fast_comm


def _halo_counts(fast_comm):
    fp = fast_comm.fastpath
    return fp.halos_short_circuited, fp.halos_declined


@pytest.mark.parametrize("p", [2, 3, 5, 64])
@pytest.mark.parametrize("nbytes", [0.0, 3_000.0, 40_000.0, 2.5e6])
def test_halo_closed_form_is_bit_identical(p, nbytes):
    """A chain halo entered together on idle NICs: per-endpoint times and
    every traffic counter equal the message schedule's exactly (zero
    bytes, eager and rendezvous sizes alike)."""
    fast_comm = _halo_parity(p, _chain(p, nbytes))
    assert _halo_counts(fast_comm) == (1, 0)
    assert _counts(fast_comm) == (0, 0)
    assert fast_comm.fastpath.messages_modelled == 2 * (p - 1)
    assert fast_comm.messages_sent == 2 * (p - 1)


@pytest.mark.parametrize("p", [2, 5, 16])
def test_halo_rounds_interleaved_with_collectives(p):
    """Halos and allreduces alternating, as in a CG loop: every one
    closes and the run still equals the message schedule."""
    fast_comm = _halo_parity(p, _chain(p, 70_000.0), rounds=3)
    if p & (p - 1) == 0:
        assert _halo_counts(fast_comm) == (3, 0)
        assert _counts(fast_comm) == (2, 0)
    else:
        # The fold allreduce finishes paired ranks one hop late, so the
        # next halo's entries are staggered and it declines.
        assert _halo_counts(fast_comm) == (1, 2)
        assert _counts(fast_comm) == (0, 0)


@pytest.mark.parametrize("p", [3, 5])
def test_halo_behind_fold_allreduce_declines_on_first_join(p, monkeypatch):
    """Behind a fold allreduce the paired ranks' results are still in
    flight when the first endpoint enters the next halo, so the halo
    declines there and then: no endpoint waits for an end-of-instant
    decision, and the run still equals the message schedule."""
    decisions = []
    register = Environment.at_end_of_instant

    def counting(env, callback):
        decisions.append(callback)
        register(env, callback)

    monkeypatch.setattr(Environment, "at_end_of_instant", counting)
    fast_comm = _halo_parity(p, _chain(p, 70_000.0), rounds=3)
    assert _halo_counts(fast_comm) == (1, 2)
    assert len(decisions) == 1  # only the first halo awaited a decision


def test_halo_unequal_sizes_on_separate_links_close():
    """Sizes may differ between pipes: 0 -> 1 carries 10 kB on tx[0] and
    rx[1], 1 -> 0 carries 3 MB on tx[1] and rx[0].  Both endpoints wait
    for both messages, so both finish at the later one."""
    sends = [((1, 10_000.0),), ((0, 3e6),)]
    fast_comm = _halo_parity(2, sends)
    assert _halo_counts(fast_comm) == (1, 0)


def test_halo_unequal_sizes_on_one_link_decline():
    """rx[1] carries 10 kB from 0 and 50 kB from 2: no equal-flow closed
    form, so the halo declines and runs as messages."""
    sends = [((1, 10_000.0),), ((0, 8_000.0), (2, 8_000.0)), ((1, 50_000.0),)]
    fast_comm = _halo_parity(3, sends)
    assert _halo_counts(fast_comm) == (0, 1)
    assert fast_comm.fastpath.messages_modelled == 0


def test_halo_uneven_finish_declines():
    """Two disjoint pairs exchanging different sizes: every pipe carries
    one flow, but the pairs would finish at different instants (an early
    finisher could load a pipe the closed form assumes idle), so the
    halo declines."""
    sends = [((1, 1e6),), ((0, 1e6),), ((3, 1_000.0),), ((2, 1_000.0),)]
    fast_comm = _halo_parity(4, sends)
    assert _halo_counts(fast_comm) == (0, 1)


@pytest.mark.parametrize("p", [2, 3, 8])
def test_halo_staggered_entries_decline(p):
    fast_comm = _halo_parity(p, _chain(p, 40_000.0), stagger=2.1e-5)
    assert _halo_counts(fast_comm) == (0, 1)


def test_halo_busy_nic_from_second_communicator_declines():
    def noisy(env, comm):
        other = SimComm(env, comm.cluster, comm.rankmap, comm.perf,
                        collective_fastpath=False)
        other.isend(1, 2, tag=99, nbytes=50_000_000)

    def late(env, comm):
        noisy(env, comm)
        # Enter the halo while the p2p flow occupies tx[1] and rx[2].
        env.run(until=1e-4)
        assert comm.cluster.nodes[1].nic_tx.active_flows == 1

    fast_comm = _halo_parity(4, _chain(4, 20_000.0), before=late)
    assert _halo_counts(fast_comm) == (0, 1)


def test_halo_with_message_in_latency_stage_declines():
    """A message still in its latency stage occupies no NIC yet; only the
    communicator's undelivered count sees it."""

    def before(env, comm):
        comm.isend(0, 1, tag=99, nbytes=4_000_000)  # posted, not awaited

    fast_comm = _halo_parity(4, _chain(4, 60_000.0), before=before)
    assert _halo_counts(fast_comm) == (0, 1)


@pytest.mark.parametrize(
    "sends",
    [
        [((1, 8.0),), ()],  # an endpoint with nothing to exchange
        [((1, 8.0),), ((0, 8.0),), ((1, 8.0),)],  # 2 waits on 1, 1 never sends
        [((1, 8.0), (1, 8.0)), ((0, 8.0), (0, 8.0))],  # duplicate neighbour
        [((0, 8.0),), ((0, 8.0),)],  # a message to self
        [((2, 8.0),), ((0, 8.0),)],  # neighbour outside the communicator
    ],
    ids=["empty", "asymmetric", "duplicate", "self", "out-of-range"],
)
def test_halo_plan_refuses_shapes_without_a_closed_form(sends):
    assert _halo_plan(sends) is None


def test_halo_and_collective_on_one_op_is_an_invariant_error():
    env, comm = _build(3)
    fp = comm.fastpath
    fp.join(HALO, 0, 5, ((1, 8.0),))
    with pytest.raises(SimulationError, match="joined as"):
        fp.join("allreduce", 1, 5, (16.0,))
    with pytest.raises(SimulationError, match="twice"):
        fp.join(HALO, 0, 5, ((1, 8.0),))
