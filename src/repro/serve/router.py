"""Hash owners of spec keys: the cluster's placement tie-break.

:class:`ShardRouter` sends a key to shard ``h(key) mod n_shards``,
where ``h`` is the first 8 bytes of the key's SHA-256 — no dependence
on ``PYTHONHASHSEED`` or process state.  The cluster places a new key on
the least-loaded healthy shard and uses the hash owner as the tie-break,
so on an idle cluster every key lands on its owner.

Two properties carry the cluster design (property-tested in
``tests/serve/test_router.py``):

stable
    ``shard_for`` is a pure function of ``(key, n_shards)`` — the same
    key maps to the same shard on every call, in every process.  A
    worker that dies and is replaced by a fresh process keeps its shard
    id, so every key has the same owner after the respawn as before.

balanced
    Uniformly distributed keys land within a small factor of even
    across shards (max/min load ≤ 2 for realistic shard counts).

The cluster never changes its shard count, so no ring is needed to keep
keys in place across a resize.
"""

from __future__ import annotations

import hashlib


def _hash64(data: str) -> int:
    """First 8 bytes of SHA-256, as an unsigned int — deterministic
    across processes and hash-seed settings."""
    return int.from_bytes(
        hashlib.sha256(data.encode("utf-8")).digest()[:8], "big"
    )


class ShardRouter:
    """Map spec keys onto ``n_shards`` shards (``n_shards >= 1``)."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (stable across calls and processes)."""
        return _hash64(key) % self.n_shards

    def __repr__(self) -> str:  # pragma: no cover
        return f"ShardRouter(n_shards={self.n_shards})"
