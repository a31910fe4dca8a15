"""Tests for execution plans and work items."""

import numpy as np
import pytest

from repro.runtime import (
    ExecutionPlan,
    ParallelExecutor,
    SerialExecutor,
    WorkItem,
    as_executor,
    execute_item,
    make_executor,
    partition_batches,
    partition_indices,
)


def double(x):
    return 2 * x


def draw(x, rng=None):
    return float(rng.standard_normal()) + x


class TestWorkItem:
    def test_validates_index(self):
        with pytest.raises(ValueError, match="non-negative"):
            WorkItem(index=-1, fn=double, args=(1,))

    def test_validates_fn(self):
        with pytest.raises(TypeError, match="callable"):
            WorkItem(index=0, fn="not a function")

    def test_execute_returns_outcome(self):
        outcome = execute_item(WorkItem(index=3, fn=double, args=(21,)))
        assert outcome.index == 3
        assert outcome.result == 42
        assert outcome.telemetry is None


class TestExecutionPlan:
    def test_requires_contiguous_indices(self):
        items = [WorkItem(index=1, fn=double, args=(1,))]
        with pytest.raises(ValueError, match="indexed 0"):
            ExecutionPlan(items)

    def test_map_builds_labelled_items(self):
        plan = ExecutionPlan.map(double, [(1,), (2,)], labels=["a", "b"])
        assert len(plan) == 2
        assert [item.label for item in plan] == ["a", "b"]
        assert [item.args for item in plan] == [(1,), (2,)]

    def test_map_default_labels(self):
        plan = ExecutionPlan.map(double, [(1,)])
        assert plan[0].label == "double[0]"

    def test_map_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            ExecutionPlan.map(double, [(1,), (2,)], labels=["only-one"])

    def test_map_spawns_reproducible_seeds(self):
        plan_a = ExecutionPlan.map(draw, [(0,), (1,), (2,)], seed=42)
        plan_b = ExecutionPlan.map(draw, [(0,), (1,), (2,)], seed=42)
        results_a = [execute_item(item).result for item in plan_a]
        results_b = [execute_item(item).result for item in plan_b]
        assert results_a == results_b
        # Different items draw from independent streams.
        offsets = [r - i for i, r in enumerate(results_a)]
        assert len(set(offsets)) == len(offsets)

    def test_map_without_seed_injects_no_rng(self):
        plan = ExecutionPlan.map(double, [(1,)])
        assert plan[0].seed is None


class TestPartitionIndices:
    def test_covers_every_index_once_in_order(self):
        groups = partition_indices(10, 3)
        assert [i for g in groups for i in g] == list(range(10))

    def test_near_even(self):
        sizes = [len(g) for g in partition_indices(11, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_groups_collapses(self):
        groups = partition_indices(2, 5)
        assert groups == [(0,), (1,)]

    def test_single_group_holds_every_index(self):
        assert partition_indices(4, 1) == [(0, 1, 2, 3)]

    def test_zero_items_yield_zero_groups(self):
        # Regression: this used to raise through the modulo arithmetic;
        # an empty work list now partitions to an empty shard list.
        assert partition_indices(0, 4) == []

    def test_negative_items_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            partition_indices(-1, 2)

    def test_zero_groups_rejected(self):
        with pytest.raises(ValueError, match="group"):
            partition_indices(4, 0)


class TestPartitionBatches:
    def test_width_caps_each_shard(self):
        assert partition_batches(7, 3) == [(0, 1, 2), (3, 4, 5), (6,)]

    def test_serial_gets_one_shard_up_to_batch_size(self):
        assert partition_batches(16, 32) == [tuple(range(16))]

    @pytest.mark.parametrize(
        "n, batch_size, workers, widths",
        [
            (16, 32, 2, [8, 8]),
            (16, 3, 2, [3, 3, 3, 3, 3, 1]),
            (5, 32, 2, [3, 2]),
            (3, 32, 4, [1, 1, 1]),
        ],
    )
    def test_workers_narrow_the_width(self, n, batch_size, workers, widths):
        shards = partition_batches(n, batch_size, workers)
        assert [len(s) for s in shards] == widths
        assert [k for s in shards for k in s] == list(range(n))

    def test_empty_and_invalid(self):
        assert partition_batches(0, 4, 2) == []
        with pytest.raises(ValueError, match="batch_size"):
            partition_batches(4, 0)
        with pytest.raises(ValueError, match="min_shards"):
            partition_batches(4, 2, 0)


class TestMakeExecutor:
    def test_serial_default(self):
        assert isinstance(make_executor(), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)

    def test_process_spec(self):
        executor = make_executor("process:3")
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 3
        assert executor.spec == "process:3"

    def test_worker_counts(self):
        from repro.runtime import ResumableExecutor

        assert SerialExecutor().workers == 1
        assert make_executor("process:3").workers == 3
        assert ResumableExecutor(make_executor("process:3")).workers == 3

    def test_workers_argument_overrides_spec(self):
        assert make_executor("process:3", workers=5).workers == 5

    def test_bare_process_uses_cpu_count(self):
        import os

        assert make_executor("process").workers == max(1, os.cpu_count() or 1)

    def test_rejects_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown executor spec"):
            make_executor("threads")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="worker count"):
            make_executor("process:lots")
        with pytest.raises(ValueError, match="positive"):
            make_executor("process:0")

    def test_as_executor_normalises(self):
        serial = SerialExecutor()
        assert as_executor(serial) is serial
        assert isinstance(as_executor(None), SerialExecutor)
        assert isinstance(as_executor("process:2"), ParallelExecutor)
