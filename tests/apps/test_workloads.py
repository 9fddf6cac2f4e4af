"""Workload values are checked where the workload is declared.

A negative burst size made ``PlannedSource._burst`` reschedule itself
forever, an empty one divided by zero inside the run, and a zero count
ran a deployment with nothing to send or no replica to judge: each now
raises ``SimulationError`` at construction, before any run starts.
"""

from __future__ import annotations

import math

import pytest

from repro.apps.ad_network import AdWorkload
from repro.apps.kvs import KvsWorkload
from repro.errors import SimulationError

BAD_VALUES = [
    (AdWorkload, "batch_size", -1),
    (AdWorkload, "batch_size", 0),
    (AdWorkload, "ads_per_campaign", 0),
    (AdWorkload, "campaigns", 0),
    (AdWorkload, "report_replicas", 0),
    (AdWorkload, "ad_servers", 0),
    (AdWorkload, "entries_per_server", -5),
    (AdWorkload, "requests", 0),
    (AdWorkload, "sleep", -0.1),
    (AdWorkload, "sleep", math.nan),
    (AdWorkload, "sleep", math.inf),
    (KvsWorkload, "keys", 0),
    (KvsWorkload, "writes_per_key", 0),
    (KvsWorkload, "gets", -1),
]


@pytest.mark.parametrize(
    "workload, field, value",
    BAD_VALUES,
    ids=[f"{cls.__name__}-{field}={value}" for cls, field, value in BAD_VALUES],
)
def test_a_bad_workload_value_fails_at_declaration(workload, field, value):
    with pytest.raises(SimulationError, match=f"{workload.__name__}.{field} must be"):
        workload(**{field: value})


def test_the_default_workloads_and_a_zero_sleep_are_accepted():
    AdWorkload()
    AdWorkload(sleep=0.0)
    KvsWorkload()
