"""Non-finite numbers never get past spec construction.

Every float field of every registered work model is set to NaN, +inf
and -inf in turn.  Each must be refused with a ``ValueError`` before a
run starts: a NaN passes an ``x <= 0`` check, and then the run hangs
(a NaN halo size drives a link's wake time to NaN), drops work (``if dt
> 0`` skips a NaN compute time) or raises mid-run.  The phase IR, the
IO bandwidth of :class:`PhasedApp` and the fair-share link refuse
non-finite values too.
"""

import dataclasses
import math

import pytest

from repro.alya.app import ComputeContext
from repro.des import Environment
from repro.des.links import FairShareLink
from repro.serve.requests import build_spec
from repro.workloads import (
    CollectivePhase,
    ComputePhase,
    HaloPhase,
    IOPhase,
    PhasedApp,
    get_workload,
    list_workloads,
)
from repro.workloads.base import compute_seconds

BAD = [math.nan, math.inf, -math.inf]


def _float_fields():
    out = []
    for name in list_workloads():
        spec = build_spec("fig1", nodes=2, workload=name)
        for f in dataclasses.fields(spec.workmodel):
            if isinstance(getattr(spec.workmodel, f.name), float):
                out.append(pytest.param(name, f.name, id=f"{name}.{f.name}"))
    return out


FLOAT_FIELDS = _float_fields()


def test_every_workload_has_float_fields_under_test():
    assert {p.values[0] for p in FLOAT_FIELDS} == set(list_workloads())


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("workload,field", FLOAT_FIELDS)
def test_non_finite_workmodel_field_is_refused(workload, field, bad):
    spec = build_spec("fig1", nodes=2, workload=workload)
    with pytest.raises(ValueError):
        dataclasses.replace(
            spec,
            workmodel=dataclasses.replace(spec.workmodel, **{field: bad}),
        )


def _with_workmodel(spec, work):
    """``spec`` with ``work`` swapped in, without re-running validation
    (so the check under test is the only one that sees ``work``)."""
    clone = dataclasses.replace(spec)
    object.__setattr__(clone, "workmodel", work)
    return clone


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("workload,field", FLOAT_FIELDS)
def test_spec_validation_refuses_non_finite_fields_the_model_missed(
    workload, field, bad
):
    """Workload.validate_spec is the backstop for a work model whose own
    checks let a non-finite value through (here: set behind
    ``__post_init__``'s back)."""
    spec = build_spec("fig1", nodes=2, workload=workload)
    work = dataclasses.replace(spec.workmodel)
    object.__setattr__(work, field, bad)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        get_workload(workload).validate_spec(_with_workmodel(spec, work))


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: ComputePhase("c", x),
        lambda x: HaloPhase("h", x, op=0),
        lambda x: CollectivePhase("a", "allreduce", x, op=0),
        lambda x: CollectivePhase("a", "allreduce", 8.0, op=0, pre_delay=x),
        lambda x: IOPhase("io", x),
        lambda x: compute_seconds(x, ComputeContext(core_peak_flops=1e10)),
    ],
    ids=["compute", "halo", "collective", "pre_delay", "io", "flops"],
)
def test_phase_ir_refuses_non_finite_values(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


@pytest.mark.parametrize("bad", BAD + [0.0], ids=["nan", "inf", "-inf", "0"])
def test_phased_app_refuses_bad_io_bandwidth(bad):
    alya = get_workload("alya")
    with pytest.raises(ValueError, match="io_bandwidth"):
        PhasedApp(alya, alya.default_workmodel(),
                  ComputeContext(core_peak_flops=1e10), io_bandwidth=bad)


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf"])
def test_link_refuses_non_finite_transfers(bad):
    link = FairShareLink(Environment(), bandwidth=1e9)
    with pytest.raises(ValueError, match="finite"):
        link.transfer(bad)
    with pytest.raises(ValueError, match="finite"):
        link.transfer_cb(bad, lambda: None)
    assert link.active_flows == 0
