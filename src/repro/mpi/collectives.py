"""Collective algorithms, executed as real message schedules.

Every function is a *per-endpoint* generator: each simulated rank runs its
own copy (SPMD), and the collective's cost emerges from the messages it
exchanges over the contended links.  Algorithms follow the classic MPICH
choices:

- broadcast / reduce: binomial tree — O(log p) rounds;
- allreduce: recursive doubling (with the standard pre/post step for
  non-power-of-two sizes), or a ring reduce-scatter + allgather variant
  that is bandwidth-optimal for large payloads (ablation);
- allgather: ring — p-1 rounds of neighbour exchange;
- alltoall: pairwise exchange;
- barrier: dissemination.

Callers must pass the same ``op`` identifier on every rank of one
collective call so the round tags match.

On a communicator with a fast path (:mod:`repro.mpi.fastpath`) the
lockstep algorithms — ring allgather/allreduce, power-of-two
recursive-doubling allreduce, reduce-scatter and recursive-doubling
allgather — first join the fast path's per-collective decision; a
declined collective falls through to its message schedule below.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mpi.datatypes import collective_tag
from repro.mpi.fastpath import DECLINED

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import SimComm

_PRE = 900  # tag rounds reserved for the non-power-of-two pre/post steps
_POST = 901


def _largest_pof2(p: int) -> int:
    """Largest power of two <= p."""
    return 1 << (p.bit_length() - 1)


def _trace(comm: "SimComm", rank: int, op: int, name: str, nbytes: float) -> None:
    """Emit one ``mpi.collective`` record at collective entry (per rank)."""
    tracer = getattr(comm, "tracer", None)
    if tracer is not None and tracer.wants("mpi.collective"):
        tracer.record(
            comm.env.now, "mpi.collective", name,
            rank=rank, op=op, nbytes=nbytes, size=comm.size,
        )


def bcast(comm: "SimComm", rank: int, op: int, nbytes: float, root: int = 0):
    """Binomial-tree broadcast of ``nbytes`` from ``root``."""
    _trace(comm, rank, op, "bcast", nbytes)
    p = comm.size
    if p == 1:
        return
    vrank = (rank - root) % p

    # Receive from the parent (strip the lowest set bit of vrank).
    if vrank != 0:
        lsb = vrank & -vrank
        parent = ((vrank ^ lsb) + root) % p
        yield comm.recv(rank, parent, collective_tag(op, lsb.bit_length()))
        fanout_start = lsb >> 1
    else:
        fanout_start = _largest_pof2(p)

    # Forward down the tree.
    m = fanout_start
    while m >= 1:
        if vrank + m < p:
            child = ((vrank + m) + root) % p
            yield comm.isend(
                rank, child, collective_tag(op, m.bit_length()), nbytes
            )
        m >>= 1


def reduce(comm: "SimComm", rank: int, op: int, nbytes: float, root: int = 0):
    """Binomial-tree reduction towards ``root``."""
    _trace(comm, rank, op, "reduce", nbytes)
    p = comm.size
    if p == 1:
        return
    vrank = (rank - root) % p
    m = 1
    while m < p:
        if vrank & m:
            parent = ((vrank ^ m) + root) % p
            yield comm.isend(
                rank, parent, collective_tag(op, m.bit_length()), nbytes
            )
            return
        child_v = vrank + m
        if child_v < p:
            child = (child_v + root) % p
            yield comm.recv(rank, child, collective_tag(op, m.bit_length()))
        m <<= 1


def allreduce(comm: "SimComm", rank: int, op: int, nbytes: float):
    """Recursive-doubling allreduce (MPICH default for short payloads)."""
    _trace(comm, rank, op, "allreduce", nbytes)
    p = comm.size
    if p == 1:
        return
    pof2 = _largest_pof2(p)
    rem = p - pof2

    fp = getattr(comm, "fastpath", None)
    if fp is not None and rem == 0:
        ev = fp.join(
            "allreduce", rank, op, (nbytes,) * (pof2.bit_length() - 1)
        )
        if ev is not None and (yield ev) is not DECLINED:
            return

    # Fold the excess ranks into the power-of-two set.
    if rank < 2 * rem:
        if rank % 2 == 0:
            yield comm.isend(rank, rank + 1, collective_tag(op, _PRE), nbytes)
            yield comm.recv(rank, rank + 1, collective_tag(op, _POST))
            return
        yield comm.recv(rank, rank - 1, collective_tag(op, _PRE))
        newrank = rank // 2
    else:
        newrank = rank - rem

    mask = 1
    round_id = 0
    while mask < pof2:
        new_dst = newrank ^ mask
        dst = new_dst * 2 + 1 if new_dst < rem else new_dst + rem
        yield comm.exchange(
            rank, dst, dst, collective_tag(op, round_id), nbytes
        )
        mask <<= 1
        round_id += 1

    if rank < 2 * rem:  # odd rank: hand the result back to its partner
        yield comm.isend(rank, rank - 1, collective_tag(op, _POST), nbytes)


def allreduce_ring(comm: "SimComm", rank: int, op: int, nbytes: float):
    """Ring allreduce: reduce-scatter then allgather, 2(p-1) rounds of
    ``nbytes/p`` — bandwidth-optimal for large payloads."""
    _trace(comm, rank, op, "allreduce_ring", nbytes)
    p = comm.size
    if p == 1:
        return
    chunk = nbytes / p
    fp = getattr(comm, "fastpath", None)
    if fp is not None:
        ev = fp.join("allreduce_ring", rank, op, (chunk,) * (2 * (p - 1)))
        if ev is not None and (yield ev) is not DECLINED:
            return
    right = (rank + 1) % p
    left = (rank - 1) % p
    for r in range(2 * (p - 1)):
        yield comm.exchange(
            rank, right, left, collective_tag(op, r), chunk
        )


def reduce_scatter(comm: "SimComm", rank: int, op: int, nbytes: float):
    """Recursive-halving reduce-scatter of an ``nbytes`` vector.

    Power-of-two sizes only (callers handle the general case); each of the
    log2(p) rounds exchanges half of the remaining vector.
    """
    _trace(comm, rank, op, "reduce_scatter", nbytes)
    p = comm.size
    if p == 1:
        return
    if p & (p - 1):
        raise ValueError("reduce_scatter requires a power-of-two size")
    fp = getattr(comm, "fastpath", None)
    if fp is not None:
        sizes = []
        chunk = nbytes / 2.0
        for _ in range(p.bit_length() - 1):
            sizes.append(chunk)
            chunk /= 2.0
        ev = fp.join("reduce_scatter", rank, op, tuple(sizes))
        if ev is not None and (yield ev) is not DECLINED:
            return
    mask = p >> 1
    chunk = nbytes / 2.0
    round_id = 0
    while mask >= 1:
        dst = rank ^ mask
        yield comm.exchange(
            rank, dst, dst, collective_tag(op, round_id), chunk
        )
        chunk /= 2.0
        mask >>= 1
        round_id += 1


def allgather_recursive_doubling(
    comm: "SimComm", rank: int, op: int, nbytes: float
):
    """Recursive-doubling allgather of a vector totalling ``nbytes``.

    Power-of-two sizes only; round *k* exchanges ``nbytes * 2^k / p``.
    """
    _trace(comm, rank, op, "allgather_rd", nbytes)
    p = comm.size
    if p == 1:
        return
    if p & (p - 1):
        raise ValueError("allgather_recursive_doubling requires a power of two")
    fp = getattr(comm, "fastpath", None)
    if fp is not None:
        # With the reduce_scatter hook, Rabenseifner's allreduce decides
        # as its two component phases.
        sizes = []
        chunk = nbytes / p
        for _ in range(p.bit_length() - 1):
            sizes.append(chunk)
            chunk *= 2.0
        ev = fp.join("allgather_rd", rank, op, tuple(sizes))
        if ev is not None and (yield ev) is not DECLINED:
            return
    mask = 1
    chunk = nbytes / p
    round_id = 0
    while mask < p:
        dst = rank ^ mask
        yield comm.exchange(
            rank, dst, dst, collective_tag(op, 100 + round_id), chunk
        )
        chunk *= 2.0
        mask <<= 1
        round_id += 1


def allreduce_rabenseifner(comm: "SimComm", rank: int, op: int, nbytes: float):
    """Rabenseifner's allreduce: reduce-scatter + allgather.

    Moves ``2 (p-1)/p * nbytes`` per rank in ``2 log2(p)`` rounds —
    bandwidth-optimal like the ring but with logarithmic latency, the
    MPICH choice for large payloads.  Power-of-two sizes only.
    """
    _trace(comm, rank, op, "allreduce_rabenseifner", nbytes)
    p = comm.size
    if p == 1:
        return
    if p & (p - 1):
        raise ValueError("allreduce_rabenseifner requires a power-of-two size")
    yield from reduce_scatter(comm, rank, op, nbytes)
    yield from allgather_recursive_doubling(comm, rank, op, nbytes)


def allgather(comm: "SimComm", rank: int, op: int, nbytes_per_rank: float):
    """Ring allgather: p-1 neighbour exchanges of one block each."""
    _trace(comm, rank, op, "allgather", nbytes_per_rank)
    p = comm.size
    if p == 1:
        return
    fp = getattr(comm, "fastpath", None)
    if fp is not None:
        ev = fp.join("allgather", rank, op, (nbytes_per_rank,) * (p - 1))
        if ev is not None and (yield ev) is not DECLINED:
            return
    right = (rank + 1) % p
    left = (rank - 1) % p
    for r in range(p - 1):
        yield comm.exchange(
            rank, right, left, collective_tag(op, r), nbytes_per_rank
        )


def gather(comm: "SimComm", rank: int, op: int, nbytes_per_rank: float,
           root: int = 0):
    """Binomial gather; message sizes grow as subtrees merge."""
    _trace(comm, rank, op, "gather", nbytes_per_rank)
    p = comm.size
    if p == 1:
        return
    vrank = (rank - root) % p
    blocks = 1
    m = 1
    while m < p:
        if vrank & m:
            parent = ((vrank ^ m) + root) % p
            yield comm.isend(
                rank,
                parent,
                collective_tag(op, m.bit_length()),
                blocks * nbytes_per_rank,
            )
            return
        child_v = vrank + m
        if child_v < p:
            child = (child_v + root) % p
            yield comm.recv(rank, child, collective_tag(op, m.bit_length()))
            blocks += min(m, p - child_v)
        m <<= 1


def scatter(comm: "SimComm", rank: int, op: int, nbytes_per_rank: float,
            root: int = 0):
    """Binomial scatter; message sizes halve down the tree."""
    _trace(comm, rank, op, "scatter", nbytes_per_rank)
    p = comm.size
    if p == 1:
        return
    vrank = (rank - root) % p

    if vrank != 0:
        lsb = vrank & -vrank
        parent = ((vrank ^ lsb) + root) % p
        yield comm.recv(rank, parent, collective_tag(op, lsb.bit_length()))
        m = lsb >> 1
    else:
        m = _largest_pof2(p)

    while m >= 1:
        if vrank + m < p:
            child = ((vrank + m) + root) % p
            blocks = min(m, p - (vrank + m))
            yield comm.isend(
                rank,
                child,
                collective_tag(op, m.bit_length()),
                blocks * nbytes_per_rank,
            )
        m >>= 1


def alltoall(comm: "SimComm", rank: int, op: int, nbytes_per_pair: float):
    """Pairwise-exchange alltoall: p-1 rounds."""
    _trace(comm, rank, op, "alltoall", nbytes_per_pair)
    p = comm.size
    for r in range(1, p):
        dst = (rank + r) % p
        src = (rank - r) % p
        yield comm.exchange(
            rank, dst, src, collective_tag(op, r), nbytes_per_pair
        )


def barrier(comm: "SimComm", rank: int, op: int):
    """Dissemination barrier with 1-byte tokens."""
    _trace(comm, rank, op, "barrier", 0.0)
    p = comm.size
    k = 1
    round_id = 0
    while k < p:
        dst = (rank + k) % p
        src = (rank - k) % p
        yield comm.exchange(
            rank, dst, src, collective_tag(op, round_id), 1.0
        )
        k <<= 1
        round_id += 1
