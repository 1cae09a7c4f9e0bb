"""Tests for cluster assembly and SPMD job execution."""

import pytest

from repro.errors import DeadlockError, MachineError
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.sim import Simulator


class TestConstruction:
    def test_minimum_size(self):
        with pytest.raises(MachineError):
            Cluster(nnodes=0)

    def test_nodes_and_switch_wired(self):
        c = Cluster(nnodes=3)
        assert c.nnodes == 3
        assert all(n.adapter.switch is c.switch for n in c.nodes)

    def test_invalid_config_rejected(self):
        bad = SP_1998.replace(loss_rate=2.0)
        with pytest.raises(ValueError):
            Cluster(nnodes=2, config=bad)


class TestRunJob:
    def test_returns_per_rank_values(self):
        def main(task):
            yield task.cluster.sim.timeout(1.0)
            return task.rank * 10

        assert Cluster(nnodes=3).run_job(main, stacks=()) == [0, 10, 20]

    def test_ntasks_subset(self):
        def main(task):
            yield task.cluster.sim.timeout(0.0)
            return task.size

        results = Cluster(nnodes=4).run_job(main, ntasks=2, stacks=())
        assert results == [2, 2]

    def test_ntasks_over_cluster_rejected(self):
        with pytest.raises(MachineError):
            Cluster(nnodes=2).run_job(lambda t: iter(()), ntasks=3)

    def test_unknown_stack_rejected(self):
        with pytest.raises(MachineError, match="unknown stacks"):
            Cluster(nnodes=1).run_job(lambda t: iter(()),
                                      stacks=("pvm",))

    def test_unknown_ga_backend_rejected(self):
        with pytest.raises(MachineError, match="backend"):
            Cluster(nnodes=1).run_job(lambda t: iter(()),
                                      ga_backend="tcp")

    def test_deadlock_detected(self):
        def main(task):
            # Wait on an event that never fires.
            yield task.cluster.sim.event()

        with pytest.raises(MachineError, match="deadlock"):
            Cluster(nnodes=1).run_job(main, stacks=())

    def test_virtual_time_budget(self):
        def main(task):
            yield task.cluster.sim.timeout(10_000.0)

        with pytest.raises(MachineError, match="budget"):
            Cluster(nnodes=1).run_job(main, stacks=(), until=100.0)

    def test_max_events_budget(self):
        def main(task):
            while True:
                yield task.cluster.sim.timeout(1.0)

        with pytest.raises(MachineError, match="max_events"):
            Cluster(nnodes=1).run_job(main, stacks=(), max_events=100)

    def test_task_error_propagates(self):
        def main(task):
            yield task.cluster.sim.timeout(1.0)
            raise RuntimeError("task exploded")

        with pytest.raises(RuntimeError, match="exploded"):
            Cluster(nnodes=2).run_job(main, stacks=())

    def test_two_jobs_same_cluster(self):
        c = Cluster(nnodes=2)

        def main(task):
            yield c.sim.timeout(5.0)
            return task.now()

        first = c.run_job(main, stacks=())
        second = c.run_job(main, stacks=())
        assert second[0] > first[0]  # virtual clock persists

    def test_max_events_is_per_call(self):
        # Regression: the budget is relative to the event counter at
        # entry.  Historically the ceiling was absolute, so a second
        # job inherited the first's event count and a back-to-back run
        # with the same max_events died spuriously.
        c = Cluster(nnodes=2)

        def main(task):
            for _ in range(20):
                yield c.sim.timeout(1.0)
            return task.rank

        budget = 400
        assert c.run_job(main, stacks=(), max_events=budget) == [0, 1]
        assert c.sim.events_processed > 40  # first job consumed events
        assert c.run_job(main, stacks=(), max_events=budget) == [0, 1]

    def test_max_events_budget_still_enforced_on_second_job(self):
        c = Cluster(nnodes=1)

        def short(task):
            yield c.sim.timeout(1.0)

        def endless(task):
            while True:
                yield c.sim.timeout(1.0)

        c.run_job(short, stacks=())
        with pytest.raises(MachineError, match="max_events"):
            c.run_job(endless, stacks=(), max_events=50)


class TestStopReasons:
    """Each way the event loop can stop, with and without budgets."""

    @pytest.mark.parametrize("budgets", [{}, {"max_events": 10_000}])
    def test_deadlock_names_unfinished_tasks(self, budgets):
        def main(task):
            if task.rank == 1:
                yield task.cluster.sim.event()  # never fires
            yield task.cluster.sim.timeout(1.0)

        with pytest.raises(MachineError,
                           match=r"deadlocked; unfinished tasks:"
                                 r" \['task1.main'\]"):
            Cluster(nnodes=2).run_job(main, stacks=(), **budgets)

    def test_until_stops_before_passing_the_budget(self):
        c = Cluster(nnodes=1)

        def main(task):
            while True:
                yield c.sim.timeout(7.0)

        with pytest.raises(MachineError,
                           match=r"virtual-time budget of 100.0us"):
            c.run_job(main, stacks=(), until=100.0)
        assert 93.0 <= c.sim.now <= 100.0

    def test_until_with_empty_queue_reports_budget(self):
        # An empty queue peeks as infinitely far away, so a set
        # ``until`` reports the budget error ahead of the deadlock.
        def main(task):
            yield task.cluster.sim.event()

        with pytest.raises(MachineError, match="budget"):
            Cluster(nnodes=1).run_job(main, stacks=(), until=1e9)

    @pytest.mark.parametrize("budgets", [{}, {"until": 1e6},
                                         {"max_events": 10_000}])
    def test_fail_run_from_kernel_callback_surfaces(self, budgets):
        c = Cluster(nnodes=2)
        fired = []

        def main(task):
            if task.rank == 0:
                c.sim.call_after(
                    5.0, lambda _: c.fail_run(RuntimeError("parked")))
            for _ in range(100):
                yield c.sim.timeout(1.0)
            fired.append(task.rank)

        with pytest.raises(RuntimeError, match="parked"):
            c.run_job(main, stacks=(), **budgets)
        assert fired == []
        assert c.sim.now == 5.0

    def test_fail_run_outside_a_job_does_not_stop_settling(self):
        # After a job, a plain ``sim.run(until=...)`` lets trailing
        # traffic settle; an error raised then has no run to end.
        c = Cluster(nnodes=1)

        def main(task):
            yield c.sim.timeout(1.0)

        c.run_job(main, stacks=())
        c.sim.call_after(5.0, lambda _: c.fail_run(RuntimeError("late")))
        fired = []
        c.sim.call_after(10.0, fired.append, "settled")
        assert c.sim.run(until=50.0) == 50.0
        assert fired == ["settled"]

    def test_run_until_complete_detects_stuck_process(self):
        sim = Simulator()

        def stuck():
            yield sim.timeout(2.0)
            yield sim.event()

        proc = sim.process(stuck(), name="stuck")
        with pytest.raises(DeadlockError, match="'stuck' never finished"):
            sim.run_until_complete(proc)
        assert sim.now == 2.0


class TestOob:
    def test_allgather_accumulates(self):
        c = Cluster(nnodes=2)
        t1 = c.oob_allgather("k", 0, "a", 2)
        assert t1 == {0: "a"}
        t2 = c.oob_allgather("k", 1, "b", 2)
        assert t2 == {0: "a", 1: "b"}
        assert t1 is t2  # shared map

    def test_oversubscription_rejected(self):
        c = Cluster(nnodes=2)
        c.oob_allgather("k", 0, 1, 1)
        with pytest.raises(MachineError):
            c.oob_allgather("k", 1, 2, 1)


class TestTask:
    def test_now_and_memory(self):
        c = Cluster(nnodes=1)

        def main(task):
            addr = task.memory.malloc(8)
            task.memory.write_i64(addr, 7)
            yield c.sim.timeout(3.0)
            return task.now(), task.memory.read_i64(addr)

        now, val = c.run_job(main, stacks=())[0]
        assert now == 3.0
        assert val == 7
