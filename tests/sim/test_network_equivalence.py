"""The fault-policy guards change nothing: guarded vs unguarded network.

``Network.send`` asks ``faultpolicy.send_copies`` only while a loss or
duplication probability is positive, and ``Network._deliver`` asks
``delivery_action`` only while a link is blocked or the destination is
unknown or crashed.  A guard is legal only when the skipped call's result
*and* its RNG draw count are determined, so the guarded network must be
indistinguishable from :class:`tests.reference.ReferenceNetwork`, which
asks every time: same deliveries at the same instants, same counters,
same RNG state at the end — under any program of sends, probability
switches, partitions and crashes.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import LatencyModel, Network, Process, Simulator, faultpolicy
from tests.reference import ReferenceNetwork

NAMES = ("a", "b", "c")
KINDS = ("data", "ctl")  # "ctl" is reliable: exempt from loss, retried
COUNTERS = ("sent", "delivered", "dropped", "duplicated", "retried")

times = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
names = st.sampled_from(NAMES)
probabilities = st.sampled_from((0.0, 0.0, 0.3, 0.7, 1.0))

operations = st.one_of(
    # payload n > 0 makes the receiver answer with n - 1: sends from
    # inside a delivery, not only from timers
    st.tuples(st.just("send"), names, names, st.sampled_from(KINDS), st.integers(0, 2)),
    st.tuples(st.just("drop_prob"), probabilities),
    st.tuples(st.just("dup_prob"), probabilities),
    st.tuples(st.just("block"), names, names),
    st.tuples(st.just("unblock"), names, names),
    st.tuples(st.just("crash"), names),
    st.tuples(st.just("restart"), names),
)
programs = st.lists(st.tuples(times, operations), min_size=1, max_size=40)


class Echo(Process):
    def recv(self, msg) -> None:
        if msg.payload > 0:
            self.send(msg.src, msg.kind, msg.payload - 1)


def _apply(network: Network, operation: tuple) -> None:
    op, *args = operation
    if op == "send":
        network.send(*args)
    elif op in ("drop_prob", "dup_prob"):
        setattr(network, op, args[0])
    elif op == "block":
        network.block_link(*args)
    elif op == "unblock":
        network.unblock_link(*args)
    else:
        network.process(args[0]).crashed = op == "crash"


def _run(network_cls, program, *, seed, jitter, retry_crashed, retry_limit):
    sim = Simulator(seed=seed)
    network = network_cls(
        sim,
        latency=LatencyModel(base=0.01, jitter=jitter),
        reliable_kinds=("ctl",),
        retry_crashed=retry_crashed,
    )
    for name in NAMES:
        network.register(Echo(name))
    log: list[tuple] = []
    network.observe(lambda msg: log.append((*msg, sim.now)))
    for at, operation in program:
        sim.post_at(at, _apply, network, operation)
    with mock.patch.object(faultpolicy, "RETRY_LIMIT", retry_limit):
        sim.run(until=10.0)
    return {
        "log": log,
        "counters": {name: getattr(network, name) for name in COUNTERS},
        "rng": sim.rng.getstate(),
        "fired": sim.fired,
        "pending": sim.pending,
    }


@settings(max_examples=150, deadline=None)
@given(
    program=programs,
    seed=st.integers(0, 5),
    jitter=st.sampled_from((0.0, 0.02)),
    retry_crashed=st.booleans(),
    # 3 lets a permanent partition or crash reach the session timeout
    retry_limit=st.sampled_from((3, 1000)),
)
def test_guarded_network_is_indistinguishable_from_the_unguarded_one(
    program, seed, jitter, retry_crashed, retry_limit
):
    config = dict(
        seed=seed, jitter=jitter, retry_crashed=retry_crashed, retry_limit=retry_limit
    )
    assert _run(Network, program, **config) == _run(ReferenceNetwork, program, **config)


def test_the_program_space_reaches_every_policy_outcome():
    """The differential property is only as strong as what its programs
    exercise: hand-written ones must show duplication, loss, a reliable
    kind retried across a partition and a crash, and a session timeout."""
    program = [
        (0.0, ("dup_prob", 1.0)),
        (0.0, ("send", "a", "b", "data", 2)),
        (0.1, ("dup_prob", 0.0)),
        (0.1, ("drop_prob", 1.0)),
        (0.1, ("send", "a", "b", "data", 0)),
        (0.2, ("drop_prob", 0.0)),
        (0.2, ("block", "a", "c")),
        (0.2, ("send", "a", "c", "ctl", 0)),
        (0.2, ("send", "a", "c", "data", 0)),
        (0.5, ("unblock", "a", "c")),
        (0.6, ("crash", "b")),
        (0.6, ("send", "c", "b", "ctl", 0)),
        (0.9, ("restart", "b")),
    ]
    patient = dict(seed=1, jitter=0.02, retry_crashed=True, retry_limit=1000)
    result = _run(Network, program, **patient)
    assert result["counters"]["duplicated"] >= 1
    assert result["counters"]["dropped"] == 2  # the lost and the partitioned data
    assert result["counters"]["retried"] >= 2
    assert [row[:3] for row in result["log"][-2:]] == [
        ("a", "c", "ctl"),  # after the heal
        ("c", "b", "ctl"),  # after the restart
    ]
    assert result == _run(ReferenceNetwork, program, **patient)

    impatient = dict(patient, retry_limit=3)
    result = _run(Network, program, **impatient)
    assert result["counters"]["retried"] == 6  # both sessions time out
    assert result["counters"]["dropped"] == 4
    assert result == _run(ReferenceNetwork, program, **impatient)
