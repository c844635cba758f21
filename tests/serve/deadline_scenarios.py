"""Deadline scenarios shared by both backends of the serve front end.

Each scenario takes an unstarted target — a
:class:`~repro.serve.service.StudyService` or a
:class:`~repro.serve.cluster.StudyCluster` — and asserts the same
contract on it.  Callers monkeypatch ``_execute_spec`` with
:func:`slow_execute` first (a cluster's workers inherit the patch
through fork).
"""

import asyncio
import time

import pytest

import repro.exec.executor as executor_mod
from repro.exec import spec_key
from repro.serve import DeadlineExceeded, default_universe

_real_execute = executor_mod._execute_spec


def slow_execute(spec, with_obs):
    time.sleep(0.4)
    return _real_execute(spec, with_obs)


def cheap_universe(n):
    return default_universe(n, fig="fig3", nodes=4, sim_steps=1)


def waiter_side_deadline_is_typed_and_counted(target):
    spec = cheap_universe(1)[0]

    async def scenario():
        async with target:
            with pytest.raises(DeadlineExceeded) as exc_info:
                await target.submit(spec, deadline=0.05)
            return exc_info.value

    exc = asyncio.run(scenario())
    assert exc.deadline == 0.05
    assert exc.key == spec_key(spec)
    assert target.stats.deadline_exceeded >= 1
    assert target.obs.metrics.value_of("serve.deadline_exceeded") >= 1


def joiner_deadline_does_not_cancel_the_shared_flight(target):
    spec = cheap_universe(1)[0]

    async def scenario():
        async with target:
            creator = asyncio.ensure_future(target.submit(spec))
            await asyncio.sleep(0.05)  # the flight is open and running
            with pytest.raises(DeadlineExceeded):
                await target.submit(spec, deadline=0.05)  # joiner
            return await creator  # the flight itself is undisturbed

    result = asyncio.run(scenario())
    assert result.spec_name == spec.name
    assert target.stats.dedup_hits == 1
    assert target.stats.deadline_exceeded == 1
    assert target.stats.executed == 1
