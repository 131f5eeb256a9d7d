"""Simulated distributed file system."""

import pytest

from repro.mapreduce import (
    DEFAULT_REPLICATION,
    DistributedFileSystem,
    FileNotFound,
)


@pytest.fixture
def dfs():
    return DistributedFileSystem()


class TestReadWrite:
    def test_roundtrip(self, dfs):
        dfs.write("a/b", [1, 2, 3])
        assert dfs.read("a/b") == [1, 2, 3]

    def test_write_returns_count(self, dfs):
        assert dfs.write("x", iter(range(5))) == 5

    def test_overwrite(self, dfs):
        dfs.write("x", [1])
        dfs.write("x", [2])
        assert dfs.read("x") == [2]

    def test_missing_file(self, dfs):
        with pytest.raises(FileNotFound):
            dfs.read("nope")


class TestNamespace:
    def test_exists_and_contains(self, dfs):
        dfs.write("p", [])
        assert dfs.exists("p")
        assert "p" in dfs
        assert not dfs.exists("q")

    def test_delete_idempotent(self, dfs):
        dfs.write("p", [1])
        dfs.delete("p")
        dfs.delete("p")
        assert not dfs.exists("p")

    def test_len(self, dfs):
        dfs.write("a", [])
        dfs.write("b", [])
        assert len(dfs) == 2


class TestAliasing:
    def test_read_returns_a_copy(self, dfs):
        """Mutating a read's return value must not corrupt the stored file."""
        dfs.write("cube/out", [1, 2, 3])
        leaked = dfs.read("cube/out")
        leaked.append(99)
        leaked[0] = -1
        assert dfs.read("cube/out") == [1, 2, 3]

    def test_reads_are_independent(self, dfs):
        dfs.write("p", [{"a": 1}])
        assert dfs.read("p") is not dfs.read("p")


class TestReplication:
    def test_default_replication_matches_hdfs(self, dfs):
        assert dfs.replication == DEFAULT_REPLICATION == 3

    def test_replication_validated(self):
        with pytest.raises(ValueError):
            DistributedFileSystem(replication=0)
