"""Checkpoint persistence, manifest atomicity, and DFS failure domains."""

from dataclasses import replace

import pytest

from repro.analysis import paper_cluster
from repro.core import SPCube
from repro.cubing import CubeResult, sequential_cube
from repro.datagen import gen_zipf
from repro.mapreduce.checkpoint import CheckpointManager
from repro.mapreduce.cluster import NodeTopology
from repro.mapreduce.dfs import DistributedFileSystem, ReplicaExhausted
from repro.mapreduce.faults import FaultPlan, FaultSpec, NodeFaultSpec
from repro.mapreduce.sizes import Block


def make_manager(**kwargs):
    dfs = DistributedFileSystem()
    return CheckpointManager(dfs, run_id="t", **kwargs), dfs


OUTPUTS = [[("a", 1), ("b", 2)], [("c", 3)]]


class TestCheckpointManager:
    def test_save_and_load_round_trip(self):
        manager, _dfs = make_manager()
        manager.save_round(0, "job-a", OUTPUTS, clock=12.5, trace_watermark=7)
        loaded = manager.load_round(0)
        assert loaded is not None
        assert loaded["manifest"]["job"] == "job-a"
        assert loaded["manifest"]["num_parts"] == 2
        assert loaded["manifest"]["clock"] == 12.5
        assert loaded["manifest"]["trace_watermark"] == 7
        assert loaded["outputs"] == {0: [("a", 1), ("b", 2)], 1: [("c", 3)]}

    def test_missing_round_loads_as_none(self):
        manager, _dfs = make_manager()
        assert manager.load_round(0) is None

    def test_partial_checkpoint_without_manifest_is_ignored(self):
        # A crash between the part writes and the manifest commit leaves
        # parts on the DFS but no manifest: the resume must see nothing.
        manager, dfs = make_manager()
        manager.save_part(0, 0, OUTPUTS[0])
        manager.save_part(0, 1, OUTPUTS[1])
        assert dfs.exists(manager.part_path(0, 0))
        assert manager.load_round(0) is None

    def test_manifest_naming_a_missing_part_is_ignored(self):
        manager, dfs = make_manager()
        manager.save_round(0, "job-a", OUTPUTS)
        dfs.delete(manager.part_path(0, 1))
        assert manager.load_round(0) is None

    def test_malformed_manifest_is_ignored(self):
        manager, dfs = make_manager()
        manager.save_round(0, "job-a", OUTPUTS)
        dfs.write(manager.manifest_path(0), [{"round": 0}])
        assert manager.load_round(0) is None
        dfs.write(manager.manifest_path(0), [])
        assert manager.load_round(0) is None

    def test_unreadable_part_is_ignored(self):
        # Node losses exhausted a part's replicas: the checkpoint is void.
        dfs = DistributedFileSystem(
            fault_plan=FaultPlan(
                specs=[FaultSpec("read-drop", path="ckpt/t/round-0/part-0")]
            )
        )
        manager = CheckpointManager(dfs, run_id="t")
        manager.save_round(0, "job-a", OUTPUTS)
        assert manager.load_round(0) is None

    def test_completed_rounds(self):
        manager, _dfs = make_manager()
        manager.save_round(0, "a", OUTPUTS)
        manager.save_round(2, "c", OUTPUTS)
        manager.save_part(1, 0, OUTPUTS[0])  # uncommitted: no manifest
        loaded = [i for i in range(3) if manager.load_round(i) is not None]
        assert loaded == [0, 2]

    def test_disabled_manager_writes_nothing(self):
        manager, dfs = make_manager(enabled=False)
        manager.save_round(0, "a", OUTPUTS)
        manager.save_part(0, 0, OUTPUTS[0])
        assert len(dfs) == 0


class TestBlocksThroughTheCheckpoint:
    def test_parts_keep_their_blocks(self):
        manager, dfs = make_manager()
        block = Block(0b01, [("x",), ("y",)], [1, 2])
        manager.save_round(0, "sp-cube", [[block], [("c", 3)], []])
        outputs = manager.load_round(0)["outputs"]
        assert outputs == {0: [block], 1: [("c", 3)], 2: []}
        assert type(outputs[0][0]) is Block
        # A block is a record per group on the DFS, as at the reducer.
        assert dfs.records_written == 2 + 1 + 0 + 1

    def test_node_kill_resume_of_sp_cube_merges_salvaged_blocks(self):
        relation = gen_zipf(2000, seed=3)
        plan = FaultPlan(seed=5, node_specs=[
            NodeFaultSpec(node=2, at_seconds=30.0, job="sp-cube"),
        ])
        cluster = replace(
            paper_cluster(2000, num_machines=6, num_nodes=3), fault_plan=plan
        )
        dfs = DistributedFileSystem(
            fault_plan=plan, topology=cluster.topology()
        )
        run = SPCube(cluster, dfs=dfs).compute(relation)
        killed, rerun = run.metrics.jobs[-2:]
        assert killed.superseded and not rerun.aborted
        assert 0 < len(rerun.reduce_tasks) < 7  # salvaged parts not re-run
        assert run.cube == sequential_cube(relation)
        # The committed round, read back, is salvaged and re-run parts
        # alike as blocks, and rebuilds the same cube.
        parts = CheckpointManager(dfs, run_id="spcube").load_round(1)["outputs"]
        assert sorted(parts) == list(range(7))
        reloaded = CubeResult(relation.schema)
        for blocks in parts.values():
            for block in blocks:
                assert type(block) is Block
                reloaded.add_block(*block)
        assert reloaded == run.cube


class TestDfsFailureDomains:
    def topo(self, nodes=4):
        return NodeTopology(num_nodes=nodes, num_machines=nodes)

    def test_placement_pins_replicas_to_nodes(self):
        dfs = DistributedFileSystem(topology=self.topo())
        dfs.write("x", [1, 2])
        placement = dfs._placement["x"]
        assert len(placement) == dfs.replication
        assert all(0 <= n < 4 for n in placement)

    def test_node_death_re_replicates_surviving_paths(self):
        dfs = DistributedFileSystem(topology=self.topo())
        dfs.write("x", [1, 2])
        victim = dfs._placement["x"][0]
        dfs.mark_nodes_dead([victim])
        assert victim not in dfs._placement["x"]
        assert dfs.re_replications >= 1
        assert dfs.read("x") == [1, 2]

    def test_losing_every_replica_node_exhausts_the_path(self):
        dfs = DistributedFileSystem(topology=self.topo())
        dfs.write("x", [1, 2])
        dfs.mark_nodes_dead(set(dfs._placement["x"]))
        with pytest.raises(ReplicaExhausted, match="node failures"):
            dfs.read("x")
        assert dfs.failed_reads == 1

    def test_rewrite_after_loss_restores_the_path(self):
        dfs = DistributedFileSystem(topology=self.topo())
        dfs.write("x", [1])
        dfs.mark_nodes_dead(set(dfs._placement["x"]))
        dfs.write("x", [2])
        assert dfs.read("x") == [2]
        # The new placement avoids dead nodes entirely.
        assert not set(dfs._placement["x"]) & dfs.dead_nodes

    def test_writes_after_death_avoid_dead_nodes(self):
        dfs = DistributedFileSystem(topology=self.topo())
        dfs.mark_nodes_dead([0, 1])
        dfs.write("y", [1])
        assert not set(dfs._placement["y"]) & {0, 1}

    def test_without_topology_node_death_is_a_noop(self):
        dfs = DistributedFileSystem()
        dfs.write("x", [1])
        dfs.mark_nodes_dead([0, 1, 2])
        assert dfs.read("x") == [1]

    def test_delete_clears_placement_and_lost_state(self):
        dfs = DistributedFileSystem(topology=self.topo())
        dfs.write("x", [1])
        dfs.mark_nodes_dead(set(dfs._placement["x"]))
        dfs.delete("x")
        assert "x" not in dfs
        assert "x" not in dfs._placement
        dfs.write("x", [5])
        assert dfs.read("x") == [5]

    def test_preferred_node_read_is_content_identical(self):
        plan = FaultPlan(seed=1, read_drop_prob=0.3)
        dfs = DistributedFileSystem(topology=self.topo(), fault_plan=plan)
        dfs.write("x", [1, 2, 3])
        node = dfs._placement["x"][1]
        assert dfs.read("x", preferred_node=node) == dfs.read("x")
