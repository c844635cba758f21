"""Rank-to-node placement.

A :class:`RankMap` describes how a job's endpoints land on nodes.  The
default is the block placement SLURM produces for ``--ntasks-per-node``;
a round-robin (cyclic) mapping is provided for the placement ablation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Placement(enum.Enum):
    """How consecutive ranks map to nodes."""

    BLOCK = "block"
    CYCLIC = "cyclic"


@dataclass(frozen=True)
class RankMap:
    """Placement of ``n_ranks`` endpoints across ``n_nodes`` nodes.

    Attributes
    ----------
    n_ranks:
        Number of communicating endpoints (MPI ranks, or node-groups in
        hierarchical mode).
    n_nodes:
        Nodes in the allocation.
    placement:
        Block (default, SLURM-like) or cyclic.
    """

    n_ranks: int
    n_nodes: int
    placement: Placement = Placement.BLOCK

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.n_ranks < self.n_nodes:
            raise ValueError(
                f"{self.n_ranks} ranks cannot occupy {self.n_nodes} nodes"
            )

    @property
    def ranks_per_node(self) -> int:
        """Ranks on each node (ceil for uneven divisions)."""
        return -(-self.n_ranks // self.n_nodes)

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank``."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        if self.placement is Placement.BLOCK:
            return rank // self.ranks_per_node
        return rank % self.n_nodes

    def ranks_on(self, node: int) -> list[int]:
        """All ranks placed on ``node``."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        return [r for r in range(self.n_ranks) if self.node_of(r) == node]

    def same_node(self, a: int, b: int) -> bool:
        """Whether two ranks share a node (shared-memory path)."""
        return self.node_of(a) == self.node_of(b)
