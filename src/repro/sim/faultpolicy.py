"""Delivery-fault semantics shared by the simulated and socket backends.

The simulator's :class:`~repro.sim.network.Network` and the real-transport
:mod:`repro.net` stack must agree *exactly* on what a fault means — which
messages a loss window may drop, when a reliable kind retries instead of
dying, how overlapping fault windows compose.  Those rules live here, as
plain data and pure decision functions, so the two backends import one
policy and cannot drift:

* :func:`send_copies` — the send-side loss/duplication decision
  (reliable kinds are exempt; the RNG draw order is part of the contract,
  because seeded runs pin their traces byte-for-byte);
* :func:`delivery_action` — the delivery-side decision against blocked
  links and crashed destinations (reliable kinds model TCP-backed
  sessions: delayed by a partition, not lost; retried across a crash only
  under ``retry_crashed``);
* :func:`retry_action` — the session-timeout rule bounding those retries
  at :data:`RETRY_LIMIT` attempts;
* :class:`WindowSet` — overlapping fault-window composition: the
  strongest open window governs, and the pre-window baseline returns
  exactly when the last window closes.

This module is import-free by design: it sits below both
``repro.sim.network`` and ``repro.net``.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = [
    "DELIVER",
    "DROP",
    "RETRY",
    "RETRY_LIMIT",
    "WindowSet",
    "delivery_action",
    "reorder_combine",
    "retry_action",
    "send_copies",
]

DELIVER = "deliver"
DROP = "drop"
RETRY = "retry"

# Session timeout: a reliable message retries at most this many times
# (across partitions and crashed peers) before the session gives up and
# the message counts as dropped.  Far above any healing window in
# practice, it exists so a *permanent* crash or partition ends in visible
# loss instead of a run that never quiesces.
RETRY_LIMIT = 1000


def send_copies(rng, *, reliable: bool, drop_prob: float, dup_prob: float) -> int:
    """How many copies of a message leave the sender: 0 (lost), 1, or 2.

    Loss is checked before duplication, and each check draws from ``rng``
    only when its probability is positive — the draw order and count are
    part of the backend contract (seeded traces are compared byte-wise
    across kernels, so a refactor must not perturb the RNG stream).
    Reliable kinds stand for TCP-backed channels: never lost, never
    duplicated at the transport.
    """
    if not reliable and drop_prob > 0 and rng.random() < drop_prob:
        return 0
    if not reliable and dup_prob > 0 and rng.random() < dup_prob:
        return 2
    return 1


def delivery_action(
    *,
    reliable: bool,
    link_blocked: bool,
    dst_known: bool,
    dst_crashed: bool,
    retry_crashed: bool,
) -> str:
    """The delivery-time verdict: ``DELIVER``, ``DROP``, or ``RETRY``.

    A blocked link (partition) delays reliable kinds — the session layer
    retransmits until the link heals — and drops everything else.  A
    crashed destination drops deliveries; with ``retry_crashed`` the
    reliable session is re-established when the peer restarts, so those
    messages retry instead.
    """
    if link_blocked:
        return RETRY if reliable else DROP
    if not dst_known or dst_crashed:
        if dst_known and retry_crashed and reliable:
            return RETRY
        return DROP
    return DELIVER


def retry_action(attempt: int) -> str:
    """Session timeout: give up (``DROP``) past :data:`RETRY_LIMIT` attempts."""
    return DROP if attempt >= RETRY_LIMIT else RETRY


def reorder_combine(base: Any, factors: list, model_cls: Callable) -> Any:
    """The effective latency model under open reorder windows.

    The largest open factor inflates the *pre-window* jitter (windows do
    not multiply each other); a jitter-free baseline borrows its base
    latency as the jitter scale so a reorder burst still reorders.
    """
    if not factors:
        return base
    jitter = base.jitter if base.jitter > 0 else base.base
    return model_cls(base.base, jitter * max(factors))


class WindowSet:
    """Overlapping fault windows over one network parameter.

    Each window contributes its value while open; ``combine(base, open)``
    yields the effective parameter (``max`` for probabilities, jitter
    inflation for reorder bursts).  The baseline is captured when the
    first window opens and restored — and forgotten — when the last one
    closes, so back-to-back window groups re-capture a baseline that may
    itself have changed in between.
    """

    def __init__(self, combine: Callable[[Any, list], Any] | None = None) -> None:
        self._combine = combine or (lambda base, open_: max([base, *open_]))
        self._open: list = []
        self._base: Any = None

    def begin(self, value: Any, current: Any) -> Any:
        """Open one window; returns the new effective parameter.

        ``current`` is the live network parameter, captured as the
        baseline when this is the first open window.
        """
        if not self._open:
            self._base = current
        self._open.append(value)
        return self._combine(self._base, self._open)

    def end(self, value: Any) -> Any:
        """Close one window; returns the new effective parameter.

        When the last window closes the captured baseline is returned
        (and forgotten, so the next group re-captures).
        """
        self._open.remove(value)
        effective = self._combine(self._base, self._open)
        if not self._open:
            self._base = None
        return effective
