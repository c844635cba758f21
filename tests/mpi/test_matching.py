"""MessageQueue semantics: unit pins plus Store-equivalence properties.

The indexed :class:`~repro.mpi.matching.MessageQueue` must be
observably identical to the legacy Store + closure-predicate matcher it
replaced.  The Hypothesis test drives random interleavings of deliveries
and (possibly wildcard) receives through both implementations and
asserts that every receive resolves at the same point in the sequence
with the same message, and that the buffered remainder is identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Message
from repro.mpi.matching import MessageQueue
from tests.des.store import Store


def _store_get(store, src, tag):
    """The legacy comm.recv predicate closure over a Store."""

    def match(m):
        return (src == ANY_SOURCE or m.src == src) and (
            tag == ANY_TAG or m.tag == tag
        )

    return store.get(match)


# -- unit pins ----------------------------------------------------------------


def test_exact_match_fifo_per_pair():
    env = Environment()
    q = MessageQueue(env)
    for serial in range(3):
        q.deliver(Message(0, 1, tag=7, nbytes=1.0, payload=serial))
    got = [q.get(0, 7).value.payload for _ in range(3)]
    assert got == [0, 1, 2]
    assert q.matched_fast == 3
    assert len(q) == 0
    assert not q._buckets  # emptied buckets are deleted eagerly


def test_wildcard_takes_oldest_across_pairs():
    env = Environment()
    q = MessageQueue(env)
    q.deliver(Message(2, 0, tag=5, nbytes=1.0, payload="first"))
    q.deliver(Message(1, 0, tag=9, nbytes=1.0, payload="second"))
    assert q.get(ANY_SOURCE, ANY_TAG).value.payload == "first"
    assert q.get(ANY_SOURCE, ANY_TAG).value.payload == "second"
    assert q.matched_wild == 2


def test_oldest_getter_wins_across_kinds():
    """A delivery goes to the oldest matching getter, exact or wildcard."""
    env = Environment()
    q = MessageQueue(env)
    wild = q.get(ANY_SOURCE, 3)  # posted first
    exact = q.get(0, 3)  # posted second
    q.deliver(Message(0, 1, tag=3, nbytes=1.0, payload="a"))
    assert wild.triggered and wild.value.payload == "a"
    assert not exact.triggered
    q.deliver(Message(0, 1, tag=3, nbytes=1.0, payload="b"))
    assert exact.triggered and exact.value.payload == "b"
    assert q.matched_fast == 1 and q.matched_wild == 1


def test_unmatched_messages_buffer_in_order():
    env = Environment()
    q = MessageQueue(env)
    q.deliver(Message(0, 1, tag=1, nbytes=1.0, payload=0))
    q.deliver(Message(5, 1, tag=2, nbytes=1.0, payload=1))
    q.deliver(Message(0, 1, tag=1, nbytes=1.0, payload=2))
    assert len(q) == 3
    assert [m.payload for m in q.items] == [0, 1, 2]
    assert q.waiting_getters == 0


def test_src_and_tag_wildcard_queues():
    env = Environment()
    q = MessageQueue(env)
    by_src = q.get(4, ANY_TAG)
    by_tag = q.get(ANY_SOURCE, 8)
    assert q.waiting_getters == 2
    q.deliver(Message(4, 0, tag=9, nbytes=1.0, payload="src-match"))
    q.deliver(Message(3, 0, tag=8, nbytes=1.0, payload="tag-match"))
    assert by_src.value.payload == "src-match"
    assert by_tag.value.payload == "tag-match"
    assert q.waiting_getters == 0
    assert not q._g_src and not q._g_tag  # pruned eagerly


# -- Store equivalence property ----------------------------------------------

_SRC = st.integers(min_value=0, max_value=3)
_TAG = st.integers(min_value=0, max_value=3)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _SRC, _TAG),
        st.tuples(
            st.just("get"),
            st.one_of(st.just(ANY_SOURCE), _SRC),
            st.one_of(st.just(ANY_TAG), _TAG),
        ),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(ops=_OPS)
def test_message_queue_matches_store(ops):
    """Random deliver/receive interleavings resolve identically in the
    MessageQueue and in the legacy Store + predicate implementation."""
    env = Environment()
    store = Store(env)
    queue = MessageQueue(env)
    store_gets = []
    queue_gets = []
    for serial, op in enumerate(ops):
        if op[0] == "put":
            _, src, tag = op
            msg = Message(src, dst=0, tag=tag, nbytes=1.0, payload=serial)
            store.put(msg)
            queue.deliver(msg)
        else:
            _, src, tag = op
            store_gets.append(_store_get(store, src, tag))
            queue_gets.append(queue.get(src, tag))
        # Observable state must agree after *every* step, not just at the
        # end — matching happens synchronously in both implementations.
        for sev, qev in zip(store_gets, queue_gets):
            assert sev.triggered == qev.triggered
            if sev.triggered:
                assert sev.value.payload == qev.value.payload
    assert [m.payload for m in store.items] == [
        m.payload for m in queue.items
    ]
    assert len(store) == len(queue)
