"""Collective algorithms, executed as real message schedules.

Every function is a *per-endpoint* generator: each simulated rank runs its
own copy (SPMD), and the collective's cost emerges from the messages it
exchanges over the contended links.  Algorithms follow the classic MPICH
choices:

- broadcast / gather: binomial tree — O(log p) rounds;
- allreduce: recursive doubling (with the standard pre/post step for
  non-power-of-two sizes), or a ring reduce-scatter + allgather variant
  that is bandwidth-optimal for large payloads (ablation);
- allgather: ring — p-1 rounds of neighbour exchange;
- alltoall: pairwise exchange.

Callers must pass the same ``op`` identifier on every rank of one
collective call so the round tags match.

On a communicator with a fast path (:mod:`repro.mpi.fastpath`) the
lockstep algorithms — ring allgather/allreduce and power-of-two
recursive-doubling allreduce — first join the fast path's
per-collective decision; a declined collective falls through to its
message schedule below.
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
    tracer = comm.tracer
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


def allreduce(comm: "SimComm", rank: int, op: int, nbytes: float):
    """Recursive-doubling allreduce (MPICH default for short payloads)."""
    _trace(comm, rank, op, "allreduce", nbytes)
    p = comm.size
    if p == 1:
        return
    pof2 = _largest_pof2(p)
    rem = p - pof2

    fp = comm.fastpath
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
    tag = collective_tag(op, 0)  # round k's tag is collective_tag(op, k)
    while mask < pof2:
        new_dst = newrank ^ mask
        dst = new_dst * 2 + 1 if new_dst < rem else new_dst + rem
        yield comm.exchange(rank, dst, dst, tag, nbytes)
        mask <<= 1
        tag += 1

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
    fp = comm.fastpath
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


def allgather(comm: "SimComm", rank: int, op: int, nbytes_per_rank: float):
    """Ring allgather: p-1 neighbour exchanges of one block each."""
    _trace(comm, rank, op, "allgather", nbytes_per_rank)
    p = comm.size
    if p == 1:
        return
    fp = comm.fastpath
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

