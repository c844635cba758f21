"""The phase IR's composite constructs, one lowering rule at a time:
blocks (one span; per-phase or one-add billing), root-only compute,
a collective's pre-delay, halo/compute overlap, seeded buckets and the
duplicate-op check."""

import pytest

from repro.alya.app import ComputeContext
from repro.des import Environment
from repro.hardware import catalog
from repro.hardware.cluster import Cluster
from repro.hardware.network import NetworkPath
from repro.mpi.comm import SimComm
from repro.mpi.launcher import MpiJob
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap
from repro.obs import Observability
from repro.workloads import (
    BlockPhase,
    CollectivePhase,
    ComputePhase,
    HaloPhase,
    OverlapPhase,
    PhaseBreakdown,
    PhasedApp,
    PhasedWorkload,
)

CTX = ComputeContext(core_peak_flops=1e10)


class Scripted(PhasedWorkload):
    """Runs the same fixed program every step."""

    name = "scripted"
    workmodel_type = object

    def __init__(self, program, buckets=()):
        self.program = tuple(program)
        self.buckets = tuple(buckets)

    def default_workmodel(self, fig="fig1"):
        return None

    def phases(self, work, ctx, n_endpoints, step):
        return self.program


class SlowNodes:
    """A stand-in fault injector: every node computes 3x slower."""

    def cpu_factor(self, node, now):
        return 3.0


def run(program, buckets=(), n_ranks=4, n_nodes=2, faults=None):
    """(job result, spans) of one step of ``program``."""
    env = Environment()
    obs = Observability()
    obs.bind(env)
    cluster = Cluster(env, catalog.LENOX, num_nodes=n_nodes)
    cluster.wire_network(NetworkPath.HOST_NATIVE)
    perf = MpiPerf.for_fabric(catalog.LENOX.fabric, NetworkPath.HOST_NATIVE)
    comm = SimComm(env, cluster, RankMap(n_ranks, n_nodes), perf)
    app = PhasedApp(
        Scripted(program, buckets), None, CTX, sim_steps=1, obs=obs,
        faults=faults,
    )
    job = MpiJob(comm, app.rank_body)
    holder = {}

    def main():
        holder["res"] = yield env.process(job.run())

    env.process(main())
    env.run()
    return holder["res"], obs.spans.spans


def names(spans, ep):
    return [s.name for s in spans if s.track == f"ep-{ep}"]


@pytest.fixture
def adds(monkeypatch):
    """Every ``PhaseBreakdown.add`` call as ``(bucket, dt)``."""
    calls = []
    original = PhaseBreakdown.add

    def add(self, bucket, dt):
        calls.append((bucket, dt))
        original(self, bucket, dt)

    monkeypatch.setattr(PhaseBreakdown, "add", add)
    return calls


def cg_pairs(k):
    out = []
    for it in range(k):
        out.append(HaloPhase("halo", 4096.0, op=10 + 2 * it))
        out.append(CollectivePhase("dot", "allreduce", 16.0, op=700 + it))
    return out


# --------------------------------- blocks ------------------------------------


def test_block_marks_one_span_and_bills_each_inner_phase(adds):
    res, spans = run([BlockPhase("cg_solve", cg_pairs(3))], n_ranks=2,
                     n_nodes=2)
    # One span for the block, then the step: inner phases mark nothing.
    assert names(spans, 0) == names(spans, 1) == ["cg_solve", "step"]
    # One add per inner phase and rank.
    assert sorted(b for b, _ in adds) == ["collective"] * 6 + ["halo"] * 6
    assert list(res.rank_results[0].seconds) == ["halo", "collective"]


def test_bucketed_block_bills_one_add_over_its_interval(adds):
    program = [
        BlockPhase(
            "coupling",
            (
                CollectivePhase("gather", "gather", 512.0, op=1900),
                ComputePhase("solid", 1e-3, root=0),
                CollectivePhase("bcast", "bcast", 512.0, op=1901),
            ),
            bucket="coupling",
        )
    ]
    res, spans = run(program)
    # One add per rank, none from the inner phases.
    assert [b for b, _ in adds] == ["coupling"] * 4
    root = res.rank_results[0]
    block = [s for s in spans if s.track == "ep-0" and s.name == "coupling"]
    assert len(block) == 1
    assert root.seconds == {"coupling": block[0].end - block[0].start}


# ---------------------------- root-only compute ------------------------------


def test_root_only_compute_runs_on_the_root_alone():
    res, spans = run([ComputePhase("solid", 2e-3, root=1)], n_ranks=2,
                     n_nodes=1)
    assert res.rank_results[1].seconds["compute"] == pytest.approx(2e-3)
    assert res.rank_results[0].seconds["compute"] == 0.0
    assert names(spans, 0) == []  # nothing elapsed, nothing marked


def test_root_only_compute_is_not_straggler_scaled():
    spread, _ = run([ComputePhase("c", 1e-3)], n_ranks=1, n_nodes=1,
                    faults=SlowNodes())
    rooted, _ = run([ComputePhase("c", 1e-3, root=0)], n_ranks=1,
                    n_nodes=1, faults=SlowNodes())
    assert spread.rank_results[0].seconds["compute"] == pytest.approx(3e-3)
    assert rooted.rank_results[0].seconds["compute"] == pytest.approx(1e-3)


# ------------------------- collective pre-delay ------------------------------


def test_pre_delay_sits_inside_the_collective_interval(adds):
    plain, _ = run([CollectivePhase("dot", "allreduce", 16.0, op=0)])
    n_plain = len(adds)
    delayed, spans = run(
        [CollectivePhase("dot", "allreduce", 16.0, op=0, pre_delay=5e-4)]
    )
    # Still one add per rank: the delay is not billed separately.
    assert len(adds) - n_plain == n_plain == 4
    for a, b in zip(plain.rank_results, delayed.rank_results):
        assert b.seconds["collective"] == pytest.approx(
            a.seconds["collective"] + 5e-4
        )
    dot = [s for s in spans if s.track == "ep-0" and s.name == "dot"]
    # The span covers the delay too: it starts at the phase start.
    assert len(dot) == 1 and dot[0].start == 0.0
    assert dot[0].end == pytest.approx(
        delayed.rank_results[0].seconds["collective"]
    )


# --------------------------------- overlap -----------------------------------


def test_overlap_posts_the_halo_behind_the_compute():
    halo = HaloPhase("halo", 4e6, op=0)
    compute = ComputePhase("compute", 5e-3)
    sync, sync_spans = run([compute, halo])
    over, over_spans = run([OverlapPhase(halo, compute)])
    # Marks (and bucket order) match the synchronous program.
    assert names(over_spans, 0) == names(sync_spans, 0) == [
        "compute", "halo", "step",
    ]
    assert list(over.rank_results[0].seconds) == ["compute", "halo"]
    # The transfer ran during the compute: only the rest is billed halo.
    for s, o in zip(sync.rank_results, over.rank_results):
        assert o.seconds["compute"] == s.seconds["compute"]
        assert o.seconds["halo"] < s.seconds["halo"]
    assert over.elapsed_seconds < sync.elapsed_seconds


# --------------------------- buckets and op checks ---------------------------


def test_declared_buckets_seed_the_breakdown_in_order():
    res, _ = run(
        [ComputePhase("c", 1e-3)],
        buckets=("compute", "halo", "collective", "coupling"),
        n_ranks=1, n_nodes=1,
    )
    fr = res.rank_results[0].fractions()
    assert list(fr) == ["compute", "halo", "collective", "coupling"]
    assert fr == {"compute": 1.0, "halo": 0.0, "collective": 0.0,
                  "coupling": 0.0}


@pytest.mark.parametrize(
    "program",
    [
        [HaloPhase("h", 8.0, op=3),
         BlockPhase("b", [HaloPhase("h", 8.0, op=3)])],
        [BlockPhase("b", [BlockPhase("inner", cg_pairs(1))]),
         CollectivePhase("c", "allreduce", 8.0, op=700)],
        [OverlapPhase(HaloPhase("h", 8.0, op=5), ComputePhase("c", 1e-3)),
         CollectivePhase("c", "allreduce", 8.0, op=5)],
    ],
    ids=["block", "nested-block", "overlap"],
)
def test_duplicate_op_check_recurses_into_composites(program):
    app = PhasedApp(Scripted(program), None, CTX)
    with pytest.raises(ValueError, match="duplicate op"):
        app._phases_for(2, 0)


def test_composite_validation():
    with pytest.raises(ValueError):
        BlockPhase("b", (), bucket="")
    with pytest.raises(TypeError):
        OverlapPhase(ComputePhase("c", 1.0), HaloPhase("h", 1.0, op=0))
    with pytest.raises(ValueError):
        CollectivePhase("c", "allreduce", 8.0, op=0, pre_delay=-1.0)
    with pytest.raises(ValueError):
        ComputePhase("c", 1.0, root=-1)
    # Blocks freeze their phase list.
    assert BlockPhase("b", [ComputePhase("c", 1.0)]).phases == (
        ComputePhase("c", 1.0),
    )
