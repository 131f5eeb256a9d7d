"""A minimal in-memory stand-in for the cluster's distributed file system.

Paper Section 2.3 assumes all machines share a DFS from which the relation
is read and to which the cube (and the SP-Sketch, between rounds) is
written.  This module provides exactly that contract: named files holding
record lists, with byte accounting so broadcast artifacts like the sketch
can be measured the way the paper measures them (Figure 5c, 6c).

Like HDFS, every file is stored with ``replication`` copies.  ``read``
always returns a fresh copy of the file's records, so callers can never
mutate DFS state through an aliased return value.

With a :class:`~repro.mapreduce.cluster.NodeTopology` attached the DFS is
*placement-aware*: each path's replicas are pinned to nodes at write time
(a stable ring walk from a content hash of the path, like HDFS block
placement).  A node death (:meth:`mark_nodes_dead`) kills the replicas it
hosted; paths that keep at least one live copy are re-replicated onto
surviving nodes — HDFS's re-replication pipeline — and only a path whose
*every* replica died becomes unreadable (:class:`ReplicaExhausted`).  This
is the replication assumption the paper leans on: losing a node costs
time, not data, unless replication is actually exhausted.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from .sizes import Block

#: HDFS's default replication factor.
DEFAULT_REPLICATION = 3


class FileNotFound(KeyError):
    """Raised when reading a path that was never written."""


class ReplicaExhausted(IOError):
    """Raised when node deaths lost every replica of a path."""


def _record_count(records: List) -> int:
    """Records a file holds: a :class:`Block` is one per group."""
    blocks = [record for record in records if type(record) is Block]
    return len(records) - len(blocks) + sum(len(b.groups) for b in blocks)


class DistributedFileSystem:
    """Named record files shared by all simulated machines."""

    def __init__(
        self,
        replication: int = DEFAULT_REPLICATION,
        topology=None,
    ) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self._files: Dict[str, List] = {}
        self.replication = replication
        #: Node placement of each path's replicas (replica index -> node).
        #: Only tracked when a topology is attached.
        self._placement: Dict[str, List[int]] = {}
        self.topology = topology
        #: Nodes whose replicas are gone (see :meth:`mark_nodes_dead`).
        self.dead_nodes: Set[int] = set()
        #: Paths that lost every replica to node deaths.
        self._lost: Set[str] = set()
        #: Replicas re-created on surviving nodes after a node death.
        self.re_replications = 0
        #: Write calls and the records they stored (run-span counters).
        self.writes = 0
        self.records_written = 0

    # -- placement -----------------------------------------------------------

    def _place(self, path: str) -> None:
        """Pin ``path``'s replicas to nodes (stable ring from a path hash)."""
        if self.topology is None:
            return
        nodes = []
        live = [
            n
            for n in range(self.topology.num_nodes)
            if n not in self.dead_nodes
        ]
        for replica in range(self.replication):
            node = self.topology.replica_node(path, replica)
            if node in self.dead_nodes and live:
                # Walk the ring to the next live node, deterministically.
                node = live[node % len(live)]
            nodes.append(node)
        self._placement[path] = nodes

    def mark_nodes_dead(self, nodes: Iterable[int]) -> None:
        """A batch of nodes died: kill their replicas, then re-replicate.

        Mirrors HDFS block recovery.  All deaths in the batch land first
        (simultaneous failure — a path replicated only across the dying
        nodes is lost for good), then every path that kept at least one
        live replica gets its dead replicas re-created on surviving
        nodes, counted in ``re_replications``.  Without a topology this
        is a no-op: there are no failure domains to lose.
        """
        if self.topology is None:
            return
        batch = set(nodes) - self.dead_nodes
        if not batch:
            return
        self.dead_nodes |= batch
        live = [
            n
            for n in range(self.topology.num_nodes)
            if n not in self.dead_nodes
        ]
        for path in sorted(self._placement):
            placement = self._placement[path]
            dead_slots = [
                i for i, node in enumerate(placement) if node in self.dead_nodes
            ]
            if not dead_slots:
                continue
            if len(dead_slots) == len(placement) or not live:
                self._lost.add(path)
                continue
            # Re-replicate each dead slot onto a live node, walking the
            # ring from the replica's original position.
            for slot in dead_slots:
                original = self.topology.replica_node(path, slot)
                placement[slot] = live[original % len(live)]
                self.re_replications += 1

    # -- file operations -----------------------------------------------------

    def write(self, path: str, records: Iterable) -> int:
        """Store ``records`` under ``path``; returns the record count."""
        materialized = list(records)
        self._files[path] = materialized
        self._lost.discard(path)
        self._place(path)
        self.writes += 1
        self.records_written += _record_count(materialized)
        return len(materialized)

    def read(self, path: str) -> List:
        """A copy of the records of ``path``.

        Raises :class:`FileNotFound` if the path was never written and
        :class:`ReplicaExhausted` when node deaths wiped every copy
        before re-replication could save one.
        """
        try:
            records = self._files[path]
        except KeyError:
            raise FileNotFound(path) from None
        if path in self._lost:
            raise ReplicaExhausted(
                f"{path}: all replicas lost to node failures"
            )
        return list(records)

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        """Remove ``path`` and its placement record atomically."""
        self._files.pop(path, None)
        self._placement.pop(path, None)
        self._lost.discard(path)

    def __contains__(self, path: str) -> bool:
        return path in self._files

    def __len__(self) -> int:
        return len(self._files)
