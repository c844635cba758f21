"""The serving benchmark's traffic mixes build in both modes.

``benchmarks/bench_serve_throughput.py`` builds its full-mode mixes only
when run without ``--quick``, which no CI step does; a spec no catalog
cluster can run would surface there as a traceback before any gate.
"""

import pytest

from benchmarks.bench_serve_throughput import (
    chaos_mix,
    cluster_mix,
    traffic_mix,
)


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_every_mix_builds(quick):
    uniques, requests = traffic_mix(quick)
    assert len(requests) == (24 if quick else 96)
    assert all(spec in uniques for spec in requests)
    for mix in (cluster_mix(quick, 4), chaos_mix(quick, 4)):
        assert mix.n_requests == 12 * len(mix.universe)
