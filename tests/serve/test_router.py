"""Properties of the shard router.

The two guarantees the cluster leans on, stated as hypothesis
properties plus deterministic seeded checks:

- **stable** — ``shard_for`` is a pure function of (key, shard count):
  the same key maps to the same shard across calls, across freshly
  constructed routers, and across processes (SHA-256, never ``hash()``);
- **balanced** — uniform keys spread evenly: max/min per-shard load
  stays within 2x for every shard count the cluster ships with.
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ShardRouter
from repro.serve.router import _hash64

KEYS = st.text(min_size=1, max_size=64)


# ------------------------------ stability ------------------------------------


@given(key=KEYS, n=st.integers(min_value=1, max_value=16))
@settings(max_examples=80, deadline=None)
def test_property_routing_is_stable(key, n):
    """Same key, same shard count -> same shard, on every instance."""
    a = ShardRouter(n)
    b = ShardRouter(n)
    first = a.shard_for(key)
    assert 0 <= first < n
    assert a.shard_for(key) == first  # repeat call
    assert b.shard_for(key) == first  # fresh instance


def test_routing_is_hashseed_free():
    """The owner is a SHA-256 prefix, so the mapping is a constant of
    the codebase — pin a few points to catch accidental ``hash()`` use
    (which PYTHONHASHSEED would scramble across processes)."""
    router = ShardRouter(4)
    mapping = {k: router.shard_for(k) for k in ("a", "b", "key-0042")}
    assert mapping == {"a": 2, "b": 2, "key-0042": 3}
    # _hash64 itself must be the SHA-256 prefix, nothing platform-bound.
    assert _hash64("repro") == int.from_bytes(
        hashlib.sha256(b"repro").digest()[:8], "big"
    )


# ------------------------------- balance -------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_uniform_keys_balance_within_2x(n):
    """4000 uniform keys: the busiest shard carries at most twice the
    quietest."""
    router = ShardRouter(n)
    counts = Counter(
        router.shard_for(f"uniform-key-{i}") for i in range(4000)
    )
    assert set(counts) == set(range(n))  # every shard owns something
    assert max(counts.values()) / min(counts.values()) <= 2.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        ShardRouter(0)


def test_single_shard_owns_everything():
    router = ShardRouter(1)
    assert {router.shard_for(f"k{i}") for i in range(100)} == {0}
