"""ReplicaAssignment: component-to-task expansion and key routing."""

from __future__ import annotations

import pytest

from repro.coord.assignment import ReplicaAssignment, stable_hash
from repro.errors import SimulationError


def test_tasks_of_names_follow_executor_convention():
    assignment = ReplicaAssignment({"Count": 3, "Commit": 1})
    assert assignment.tasks_of("Count") == ("Count#0", "Count#1", "Count#2")
    assert assignment.tasks_of("Commit") == ("Commit#0",)


def test_task_for_is_deterministic_and_stable_hashed():
    assignment = ReplicaAssignment({"Count": 4})
    chosen = assignment.task_for("Count", ("w1", 3))
    assert chosen == assignment.task_for("Count", ("w1", 3))
    expected = assignment.tasks_of("Count")[stable_hash(("w1", 3)) % 4]
    assert chosen == expected


def test_invalid_counts_and_unknown_components_raise():
    with pytest.raises(SimulationError):
        ReplicaAssignment({"x": 0})
    assignment = ReplicaAssignment({"x": 1})
    with pytest.raises(SimulationError):
        assignment.tasks_of("y")


def test_stable_hash_is_deterministic_across_values():
    assert stable_hash("c3") == stable_hash("c3")
    assert stable_hash("c3") != stable_hash("c4")
