"""The driver-held checkpoint: a node-killed round resumes from the
partitions that completed before the death."""

from dataclasses import replace

from repro.analysis import paper_cluster
from repro.core import SPCube, spcube
from repro.cubing import sequential_cube
from repro.datagen import gen_zipf
from repro.mapreduce.faults import FaultPlan, NodeFaultSpec
from repro.mapreduce.sizes import Block
from repro.observability import MemorySink, Tracer


def events(sink, kind):
    return [
        record for record in sink.records
        if record["type"] == "event" and record["kind"] == kind
    ]


class TestBlocksThroughTheCheckpoint:
    def test_node_kill_resume_of_sp_cube_merges_salvaged_blocks(
        self, monkeypatch
    ):
        results = []

        class Recording(spcube.RoundRunner):
            def run(self, *args):
                results.append(super().run(*args))
                return results[-1]

        monkeypatch.setattr(spcube, "RoundRunner", Recording)
        relation = gen_zipf(2000, seed=3)
        plan = FaultPlan(seed=5, node_specs=[
            NodeFaultSpec(node=2, at_seconds=30.0, job="sp-cube"),
        ])
        sink = MemorySink()
        cluster = replace(
            paper_cluster(2000, num_machines=6, num_nodes=3),
            fault_plan=plan, tracer=Tracer([sink]),
        )
        run = SPCube(cluster).compute(relation)
        killed, rerun = run.metrics.jobs[-2:]
        assert killed.superseded and not rerun.aborted
        (resume,) = events(sink, "round_resume")
        assert resume["job"] == "sp-cube" and resume["fields"]["round"] == 1
        salvaged = resume["fields"]["salvaged_partitions"]
        rerun_parts = sorted({task.machine for task in rerun.reduce_tasks})
        # The salvaged partitions are not re-run; together with the rerun
        # they are every partition of the round, once.
        assert salvaged and rerun_parts
        assert sorted(salvaged + rerun_parts) == list(range(7))
        # The round commits once, after the rerun, and its reduce output
        # is blocks alike for salvaged and re-run partitions.
        commits = events(sink, "checkpoint_write")
        assert [c["fields"]["round"] for c in commits] == [0, 1]
        assert commits[1]["fields"]["num_parts"] == 7
        assert commits[1]["fields"]["bytes"] == sum(
            task.bytes_out for task in rerun.reduce_tasks
        )
        result = results[-1]
        assert len(result.reducer_outputs) == 7
        assert all(
            type(block) is Block
            for blocks in result.reducer_outputs for block in blocks
        )
        assert run.cube == sequential_cube(relation)
