"""Tests for CPU and memory specs."""

import dataclasses
import math

import pytest

from repro.hardware import catalog
from repro.hardware.cpu import (
    POWER9_8335_GTG,
    THUNDERX_CN8890,
    XEON_E5_2697V3,
    XEON_PLATINUM_8160,
    Architecture,
    CpuSpec,
)
from repro.hardware.memory import MemorySpec, gib


def test_paper_core_counts():
    # §A: 14 cores (E5-2697v3), 24 per socket / 48 per node (Platinum 8160),
    # 20 (Power9), 48 per socket (ThunderX).
    assert XEON_E5_2697V3.cores == 14
    assert XEON_PLATINUM_8160.cores == 24
    assert POWER9_8335_GTG.cores == 20
    assert THUNDERX_CN8890.cores == 48


def test_paper_architectures():
    assert XEON_E5_2697V3.arch is Architecture.X86_64
    assert XEON_PLATINUM_8160.arch is Architecture.X86_64
    assert POWER9_8335_GTG.arch is Architecture.PPC64LE
    assert THUNDERX_CN8890.arch is Architecture.AARCH64


def test_peak_flops_scales_with_parts():
    spec = CpuSpec(
        name="toy",
        arch=Architecture.X86_64,
        cores=4,
        frequency_hz=2e9,
        flops_per_cycle=8,
        mem_bandwidth=1e9,
    )
    assert spec.peak_flops_per_core == pytest.approx(16e9)
    assert spec.peak_flops == pytest.approx(64e9)


def test_skylake_faster_per_core_than_thunderx():
    # The portability study's implicit premise: per-core throughput differs
    # wildly across the three ISAs.
    assert (
        XEON_PLATINUM_8160.peak_flops_per_core
        > POWER9_8335_GTG.peak_flops_per_core
        > THUNDERX_CN8890.peak_flops_per_core
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cores": 0},
        {"frequency_hz": 0},
        {"flops_per_cycle": 0},
        {"mem_bandwidth": 0},
        {"smt": 0},
        # NaN and inf must fail construction: a NaN clock used to fail
        # every run mid-way, an infinite one ran with zero compute time.
        *(
            {field: value}
            for field in ("frequency_hz", "flops_per_cycle", "mem_bandwidth")
            for value in (math.nan, math.inf, -math.inf)
        ),
    ],
)
def test_cpu_validation(kwargs):
    base = dict(
        name="bad",
        arch=Architecture.X86_64,
        cores=1,
        frequency_hz=1e9,
        flops_per_cycle=2,
        mem_bandwidth=1e9,
        smt=1,
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        CpuSpec(**base)


@pytest.mark.parametrize("value", [0.0, math.nan, math.inf, -math.inf])
def test_node_rejects_bad_disk_bandwidth(value):
    with pytest.raises(ValueError, match="local_disk_bandwidth"):
        dataclasses.replace(catalog.MARENOSTRUM4.node, local_disk_bandwidth=value)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"capacity": 0},
        {"copy_bandwidth": 0},
        {"numa_domains": 0},
        {"numa_penalty": 0.5},
    ],
)
def test_memory_validation(kwargs):
    base = dict(capacity=gib(1), copy_bandwidth=1e9, numa_domains=2, numa_penalty=1.4)
    base.update(kwargs)
    with pytest.raises(ValueError):
        MemorySpec(**base)


def test_gib_helper():
    assert gib(2) == 2 * 2**30
