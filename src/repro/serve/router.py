"""Consistent-hash ring owners of spec keys: the cluster's tie-break.

:class:`ShardRouter` places every shard at ``replicas`` pseudo-random
points on a 64-bit hash ring (SHA-256 of ``"<salt>:<shard>:<replica>"``
— no dependence on ``PYTHONHASHSEED`` or process state) and sends a key
to the owner of the first ring point at or after the key's own hash.

Three properties carry the cluster design (property-tested in
``tests/serve/test_router.py``):

stable
    ``shard_for`` is a pure function of ``(key, n_shards, replicas,
    salt)`` — the same key maps to the same shard on every call, in
    every process, forever.  The cluster places a new key on the
    least-loaded healthy shard and uses the ring owner as the
    tie-break, so on an idle cluster every key lands on its owner.

balanced
    With the default replica count, uniformly distributed keys land
    within a small factor of even across shards (max/min load ≤ 2 for
    realistic shard counts).

minimally disruptive
    Growing the ring from N to N+1 shards only moves the keys the new
    shard claims (expected 1/(N+1) of them); every key that moves, moves
    *to* the new shard.  A resize never reshuffles traffic between
    surviving shards, so their L1 caches stay warm.

Stability also keeps the cluster's *respawn* path sound: a worker that
dies and is replaced by a fresh process keeps its shard id, and because
the ring is a pure function of ``(n_shards, replicas, salt)`` — never
of process identity, pids or uptime — every key has the same owner
after the respawn as before.  :meth:`signature` fingerprints the ring layout so that invariant is directly assertable
(two routers with equal signatures route every key identically).
"""

from __future__ import annotations

import bisect
import hashlib

#: Ring points per shard.  More replicas smooth the balance at the cost
#: of ring-build time; 128 keeps max/min ≤ ~1.5 on uniform keys for
#: single-digit shard counts.
DEFAULT_REPLICAS = 128


def _hash64(data: str) -> int:
    """First 8 bytes of SHA-256, as an unsigned int — deterministic
    across processes and hash-seed settings."""
    return int.from_bytes(
        hashlib.sha256(data.encode("utf-8")).digest()[:8], "big"
    )


class ShardRouter:
    """Map spec keys onto ``n_shards`` shards via a consistent-hash ring.

    Parameters
    ----------
    n_shards:
        Number of shards (>= 1).
    replicas:
        Ring points per shard (>= 1).
    salt:
        Namespace prefix for the ring-point hashes.  Two routers with
        the same ``(n_shards, replicas, salt)`` are interchangeable;
        changing the salt builds an unrelated ring.
    """

    def __init__(
        self,
        n_shards: int,
        replicas: int = DEFAULT_REPLICAS,
        salt: str = "repro-serve",
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.n_shards = n_shards
        self.replicas = replicas
        self.salt = salt
        points = []
        for shard in range(n_shards):
            for replica in range(replicas):
                points.append((_hash64(f"{salt}:{shard}:{replica}"), shard))
        points.sort()
        self._ring = [h for h, _ in points]
        self._owner = [s for _, s in points]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (stable across calls and processes)."""
        if self.n_shards == 1:
            return 0
        i = bisect.bisect_left(self._ring, _hash64(key))
        if i == len(self._ring):  # wrap past the last ring point
            i = 0
        return self._owner[i]

    def signature(self) -> str:
        """SHA-256 fingerprint of the ring layout.

        Two routers with equal signatures route every key identically —
        the respawn invariant the cluster leans on: the router survives
        a worker respawn untouched, so its signature (and therefore
        every key->shard decision) is the same before and after.
        """
        h = hashlib.sha256()
        for point, owner in zip(self._ring, self._owner):
            h.update(point.to_bytes(8, "big"))
            h.update(owner.to_bytes(4, "big"))
        return h.hexdigest()

    def assignment(self, keys) -> dict[int, list[str]]:
        """Group ``keys`` by owning shard (all shards present, even if
        empty) — the balance view the load generator reports."""
        out: dict[int, list[str]] = {s: [] for s in range(self.n_shards)}
        for key in keys:
            out[self.shard_for(key)].append(key)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShardRouter(n_shards={self.n_shards}, "
            f"replicas={self.replicas}, salt={self.salt!r})"
        )
