"""Tests for the reference Store the matching tests compare against."""

import pytest

from repro.des import Environment
from tests.des.store import Store


def test_put_then_get():
    env = Environment()
    store = Store(env)
    out = []

    def proc():
        yield store.put("m1")
        out.append((yield store.get()))

    env.process(proc())
    env.run()
    assert out == ["m1"]


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def getter():
        got.append((yield store.get()))
        got.append(env.now)

    def putter():
        yield env.timeout(7)
        yield store.put("late")

    env.process(getter())
    env.process(putter())
    env.run()
    assert got == ["late", pytest.approx(7.0)]


def test_fifo_ordering():
    env = Environment()
    store = Store(env)
    out = []

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            out.append((yield store.get()))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert out == [0, 1, 2, 3, 4]


def test_bounded_capacity_blocks_putter():
    env = Environment()
    store = Store(env, capacity=1)
    events = []

    def producer():
        yield store.put("a")
        events.append(("put-a", env.now))
        yield store.put("b")
        events.append(("put-b", env.now))

    def consumer():
        yield env.timeout(5)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert events == [("put-a", 0.0), ("put-b", 5.0)]


def test_filtered_get_matches_tag():
    env = Environment()
    store = Store(env)
    out = []

    def proc():
        yield store.put({"tag": 1, "body": "one"})
        yield store.put({"tag": 2, "body": "two"})
        msg = yield store.get(lambda m: m["tag"] == 2)
        out.append(msg["body"])
        msg = yield store.get()
        out.append(msg["body"])

    env.process(proc())
    env.run()
    assert out == ["two", "one"]


def test_filtered_get_waits_for_match():
    env = Environment()
    store = Store(env)
    got_at = []

    def getter():
        yield store.get(lambda m: m == "wanted")
        got_at.append(env.now)

    def putter():
        yield store.put("other")
        yield env.timeout(3)
        yield store.put("wanted")

    env.process(getter())
    env.process(putter())
    env.run()
    assert got_at == [pytest.approx(3.0)]
    assert store.items == ("other",)


def test_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    out = []

    def getter(tag):
        item = yield store.get()
        out.append((tag, item))

    def staged():
        env.process(getter("g1"))
        yield env.timeout(0.1)
        env.process(getter("g2"))
        yield env.timeout(0.1)
        yield store.put("x")
        yield store.put("y")

    env.process(staged())
    env.run()
    assert out == [("g1", "x"), ("g2", "y")]


def test_len_and_items():
    env = Environment()
    store = Store(env)

    def proc():
        yield store.put(1)
        yield store.put(2)

    env.process(proc())
    env.run()
    assert len(store) == 2
    assert store.items == (1, 2)


def test_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)
