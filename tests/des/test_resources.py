"""Tests for Resource."""

import pytest

from repro.des import Environment, Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def user(tag):
        req = res.request()
        yield req
        grants.append((tag, env.now))
        yield env.timeout(5)
        res.release(req)

    for tag in "abc":
        env.process(user(tag))
    env.run()
    assert grants == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_resource_fifo_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag, hold):
        with (yield res.request()):
            order.append(tag)
            yield env.timeout(hold)

    def staged():
        env.process(user("first", 1))
        yield env.timeout(0.1)
        env.process(user("second", 1))
        yield env.timeout(0.1)
        env.process(user("third", 1))

    env.process(staged())
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        with (yield res.request()):
            yield env.timeout(1)

    env.process(user())
    env.run()
    assert res.count == 0
    assert res.queue_length == 0


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_cancels_waiting_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield env.timeout(10)
        res.release(req)

    def impatient():
        req = res.request()  # will queue behind holder
        yield env.timeout(1)
        res.release(req)  # cancel while still waiting
        assert not req.triggered

    env.process(holder())
    env.process(impatient())
    env.run()
    assert res.queue_length == 0


def test_release_foreign_request_rejected():
    env = Environment()
    res_a = Resource(env, capacity=1)
    res_b = Resource(env, capacity=1)

    def proc():
        req = res_a.request()
        yield req
        with pytest.raises(RuntimeError):
            res_b.release(req)
        res_a.release(req)

    p = env.process(proc())
    env.run(until=p)
