"""Tests for rank placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.topology import Placement, RankMap


def test_block_placement():
    rm = RankMap(n_ranks=8, n_nodes=2)
    assert [rm.node_of(r) for r in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert rm.ranks_on(0) == [0, 1, 2, 3]
    assert rm.ranks_per_node == 4


def test_cyclic_placement():
    rm = RankMap(n_ranks=8, n_nodes=2, placement=Placement.CYCLIC)
    assert [rm.node_of(r) for r in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]


def test_same_node():
    rm = RankMap(n_ranks=4, n_nodes=2)
    assert rm.same_node(0, 1)
    assert not rm.same_node(1, 2)


def test_uneven_division():
    rm = RankMap(n_ranks=7, n_nodes=2)
    assert rm.ranks_per_node == 4
    assert rm.ranks_on(0) == [0, 1, 2, 3]
    assert rm.ranks_on(1) == [4, 5, 6]


def test_paper_fig1_configs():
    """Lenox: 4 nodes x 28 cores; all five Fig. 1 configs fit."""
    for ranks, threads in [(8, 14), (16, 7), (28, 4), (56, 2), (112, 1)]:
        rm = RankMap(n_ranks=ranks, n_nodes=4)
        assert rm.ranks_per_node * threads <= 28
        assert ranks * threads == 112


def test_validation():
    with pytest.raises(ValueError):
        RankMap(n_ranks=0, n_nodes=1)
    with pytest.raises(ValueError):
        RankMap(n_ranks=4, n_nodes=0)
    with pytest.raises(ValueError):
        RankMap(n_ranks=2, n_nodes=4)
    rm = RankMap(n_ranks=4, n_nodes=2)
    with pytest.raises(ValueError):
        rm.node_of(4)
    with pytest.raises(ValueError):
        rm.ranks_on(2)


@given(
    n_nodes=st.integers(min_value=1, max_value=16),
    per_node=st.integers(min_value=1, max_value=8),
    placement=st.sampled_from(list(Placement)),
)
@settings(max_examples=60, deadline=None)
def test_property_partition_is_complete_and_disjoint(n_nodes, per_node, placement):
    rm = RankMap(
        n_ranks=n_nodes * per_node, n_nodes=n_nodes, placement=placement
    )
    all_ranks = []
    for node in range(n_nodes):
        all_ranks.extend(rm.ranks_on(node))
    assert sorted(all_ranks) == list(range(rm.n_ranks))
    for rank in range(rm.n_ranks):
        assert rank in rm.ranks_on(rm.node_of(rank))
