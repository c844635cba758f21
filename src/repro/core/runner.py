"""End-to-end experiment execution on the simulator."""

from __future__ import annotations

from typing import Optional

from repro.alya.app import ComputeContext
from repro.core import calibration
from repro.core.deployment import build_image, make_distribution, make_runtime
from repro.core.experiment import EndpointGranularity, ExperimentSpec
from repro.core.metrics import ExperimentResult
from repro.des.engine import Environment
from repro.faults.injector import FaultInjector
from repro.hardware.cluster import Cluster
from repro.mpi.comm import SimComm
from repro.mpi.launcher import MpiJob
from repro.mpi.perf import MpiPerf
from repro.mpi.topology import RankMap
from repro.oskernel.nodeos import NodeOS
from repro.scheduler.jobs import JobRequest
from repro.scheduler.slurm import Partition, SlurmScheduler


class ExperimentRunner:
    """Runs :class:`ExperimentSpec`\\ s through the full pipeline:

    build image → push → submit batch job → deploy containers → launch the
    simulated Alya job → collect metrics.

    **Statelessness invariant.**  The runner holds no instance state:
    every piece of simulation machinery (the
    :class:`~repro.des.engine.Environment`, cluster, runtime, scheduler,
    communicator) is built inside :meth:`run` and dies with it, so one
    shared instance and one instance per run are equivalent, and
    concurrent runs in separate processes cannot interfere.  The
    parallel executor (:mod:`repro.exec.executor`) relies on this;
    keep new fields out of the class.

    The one sharable mutable object is an ``obs`` passed by the caller:
    :meth:`run` *rebinds* it to the new environment (``obs.bind(env)``),
    so reusing one :class:`~repro.obs.span.Observability` across runs
    accumulates spans/records/metrics from all of them.  That is valid
    for deliberate aggregation but not reproducible point-by-point —
    grid drivers must give each point a fresh ``obs`` and merge in grid
    order, which is exactly what the executor does.
    """

    def run(self, spec: ExperimentSpec, obs=None) -> ExperimentResult:
        """Execute ``spec``; thread ``obs`` (an
        :class:`repro.obs.span.Observability`) through every pipeline stage
        when given."""
        # Lazy: repro.workloads imports the Alya app and calibration,
        # which import this package — top-level would be circular.
        from repro.workloads import get_workload

        env = Environment()
        if obs is not None:
            obs.bind(env)
        cluster = Cluster(env, spec.cluster, num_nodes=spec.n_nodes)
        runtime = make_runtime(spec)
        image = build_image(spec)
        runtime.check(spec.cluster, image)
        registry, gateway = make_distribution(env, image)
        if obs is not None:
            # Build + push happen before the simulated clock starts: model
            # them as zero-duration markers carrying the §B.1 image metrics.
            obs.add_span(
                "image.build", "build", 0.0, 0.0, track="driver",
                image=image.name if image else "(none)",
                size_bytes=image.size_bytes if image else 0.0,
            )
            obs.add_span(
                "registry.push", "registry", 0.0, 0.0, track="driver",
                transfer_bytes=image.transfer_size if image else 0.0,
            )

        # Network wiring follows the runtime+image path.
        path = runtime.network_path(image)
        cluster.wire_network(path, topology=spec.switch_topology)
        perf = MpiPerf.for_fabric(spec.cluster.fabric, path)

        # Fault injection: armed only when the spec carries a plan, so
        # the common path stays byte-identical (golden-trace guaranteed).
        injector = None
        if spec.fault_plan is not None and not spec.fault_plan.is_empty:
            injector = FaultInjector(
                env, spec.fault_plan, spec.n_nodes, obs=obs
            )
            injector.arm(cluster=cluster, registry=registry)

        # Batch allocation (exclusive nodes, as on the real machines).
        scheduler = SlurmScheduler(
            env,
            Partition(
                name="repro",
                cluster=spec.cluster,
                node_ids=tuple(range(spec.n_nodes)),
            ),
            obs=obs,
        )
        job_req = JobRequest(
            name=spec.name,
            nodes=spec.n_nodes,
            ntasks=spec.total_ranks,
            cpus_per_task=spec.threads_per_rank,
        )

        node_os = [NodeOS(spec.cluster, i) for i in range(spec.n_nodes)]
        outcome: dict = {}

        granularity = spec.effective_granularity()
        if granularity is EndpointGranularity.NODE:
            n_endpoints = spec.n_nodes
            endpoint_is_node = True
        else:
            n_endpoints = spec.total_ranks
            endpoint_is_node = False
        rankmap = RankMap(n_ranks=n_endpoints, n_nodes=spec.n_nodes)
        # The exact collective and halo short-circuit is on unless a
        # fault plan is armed: a fault can change a link or a rank
        # mid-operation.
        fastpath = injector is None
        comm = SimComm(
            env, cluster, rankmap, perf,
            tracer=obs.records if obs is not None else None,
            collective_fastpath=fastpath,
        )

        def main():
            t_submit = env.now
            allocation = yield scheduler.submit(job_req)
            t_deploy = env.now
            containers, deploy_report = yield env.process(
                runtime.deploy(
                    env,
                    cluster,
                    node_os,
                    image,
                    registry=registry,
                    gateway=gateway,
                    obs=obs,
                )
            )
            t_job = env.now
            ctx = ComputeContext(
                core_peak_flops=spec.cluster.node.core_flops(),
                sustained_fraction=calibration.sustained_fraction(spec.cluster),
                omp=calibration.openmp_model(spec.cluster),
                threads_per_rank=spec.threads_per_rank,
                cpu_overhead=max(
                    (c.cpu_overhead for c in containers if c), default=1.0
                ),
                endpoint_is_node=endpoint_is_node,
                ranks_per_node=spec.ranks_per_node,
            )
            app = get_workload(spec.workload).build_app(
                spec, ctx, obs=obs, faults=injector
            )
            job_comm = comm
            requeues = 0
            while True:
                abort = (
                    injector.next_abort_event()
                    if injector is not None
                    else None
                )
                job = MpiJob(
                    job_comm, app.rank_body, containers=containers, obs=obs,
                    abort_event=abort,
                )
                result = yield env.process(job.run())
                if not result.failed:
                    scheduler.release(allocation)
                    break
                # A node died mid-job: release the allocation as failed,
                # back off, requeue (scontrol-style) and relaunch on a
                # fresh communicator — the crashed attempt's in-flight
                # transfers drain harmlessly on the old one.
                scheduler.release(allocation, failed=True)
                tolerance = injector.plan.tolerance
                requeues += 1
                if requeues > tolerance.max_requeues:
                    raise result.failure
                injector.record_requeue(spec.name, requeues)
                yield env.timeout(tolerance.requeue_delay(requeues))
                allocation = yield scheduler.requeue(job_req)
                job_comm = SimComm(
                    env, cluster, rankmap, perf,
                    tracer=obs.records if obs is not None else None,
                    collective_fastpath=fastpath,
                )
            outcome["job"] = result
            outcome["deploy"] = deploy_report
            outcome["requeues"] = requeues
            outcome["comm"] = job_comm
            # Clock at job completion — NOT env.now after run(): armed
            # fault timers may keep the queue alive past the job.
            outcome["sim_span"] = env.now
            outcome["launch_overhead"] = max(
                (c.launch_overhead_per_rank for c in containers if c),
                default=0.0,
            )
            if obs is not None:
                obs.add_span("sched.submit", "pipeline", t_submit, t_deploy,
                             track="driver", job=spec.name)
                obs.add_span("deploy", "pipeline", t_deploy, t_job,
                             track="driver", runtime=spec.runtime_name)
                obs.add_span("job.run", "pipeline", t_job, env.now,
                             track="driver")
                obs.add_span("pipeline", "pipeline", t_submit, env.now,
                             track="driver", spec=spec.name)

        env.process(main())
        env.run()

        job_result = outcome["job"]
        deploy_report = outcome["deploy"]
        phase_fractions: dict[str, float] = {}
        phase_results = [
            r for r in job_result.rank_results if hasattr(r, "fractions")
        ]
        if phase_results:
            # Accumulate whatever buckets the workload reports, in the
            # order it reports them (Alya declares compute/halo/
            # collective/coupling up front; others may add e.g. "io").
            totals: dict[str, float] = {}
            for pt in phase_results:
                for k, v in pt.fractions().items():
                    totals[k] = totals.get(k, 0.0) + v
            phase_fractions = {
                k: v / len(phase_results) for k, v in totals.items()
            }
        steps_elapsed = max(
            job_result.elapsed_seconds - outcome["launch_overhead"], 0.0
        )
        avg_step = steps_elapsed / spec.sim_steps
        elapsed = avg_step * spec.workmodel.nominal_timesteps
        phases = {
            f"solver.{k}": frac * elapsed
            for k, frac in sorted(phase_fractions.items())
        }
        if obs is not None:
            m = obs.metrics
            m.counter("mpi.messages_sent").inc(job_result.messages_sent)
            m.counter("mpi.bytes_sent").inc(job_result.bytes_sent)
            m.counter("mpi.internode_messages").inc(
                job_result.internode_messages
            )
            m.counter("mpi.messages_matched_fast").inc(
                outcome.get("comm", comm).messages_matched_fast
            )
            m.counter("des.events_executed").inc(env.events_executed)
            m.gauge("deploy.total_seconds").set(deploy_report.total_seconds)
            m.gauge("job.elapsed_seconds").set(job_result.elapsed_seconds)
            m.gauge("result.avg_step_seconds").set(avg_step)
            m.gauge("result.elapsed_seconds").set(elapsed)
        return ExperimentResult(
            spec_name=spec.name,
            runtime_name=spec.runtime_name,
            cluster_name=spec.cluster.name,
            n_nodes=spec.n_nodes,
            total_ranks=spec.total_ranks,
            threads_per_rank=spec.threads_per_rank,
            avg_step_seconds=avg_step,
            elapsed_seconds=elapsed,
            deployment=deploy_report,
            image_size_bytes=image.size_bytes if image else 0.0,
            image_transfer_bytes=image.transfer_size if image else 0.0,
            messages=job_result.messages_sent,
            bytes_sent=job_result.bytes_sent,
            internode_messages=job_result.internode_messages,
            phase_fractions=phase_fractions,
            phases=phases,
            faults_injected=injector.injected if injector else 0,
            requeues=outcome.get("requeues", 0),
            fault_timeline_digest=(
                injector.timeline_digest() if injector else ""
            ),
            sim_span_seconds=outcome.get("sim_span", 0.0),
        )
