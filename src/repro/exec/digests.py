"""Run-outcome digests: the determinism pins, computable on the pool.

The seed-digest regression pins (``tests/integration/seed_digests.json``)
hash every registered app under every strategy at fixed seeds.  The
canonicalization and hashing moved here VERBATIM from the test module so
(a) the pins stay byte-identical and (b) regeneration can fan the
independent (app, strategy, seed) cells out over the warm worker pool —
``REPRO_REGEN_DIGESTS=1`` with ``BLAZES_JOBS`` set regenerates the full
grid in one pooled sweep.
"""

from __future__ import annotations

import hashlib

__all__ = ["digest_cells", "outcome_digest", "pin_canon"]


def pin_canon(value):
    """A hash-stable canonical form: sets/dicts ordered, floats rounded.

    This is the *pin* canonicalization — moved unchanged from the
    seed-digest test so the checked-in digests never shift.  It is
    intentionally distinct from :func:`repro.exec.canon.canonical`
    (repr-based tuples vs JSON) and must not be "unified" with it.
    """
    if isinstance(value, (frozenset, set)):
        return ("set",) + tuple(sorted((pin_canon(v) for v in value), key=repr))
    if isinstance(value, dict):
        return ("dict",) + tuple(
            sorted(((pin_canon(k), pin_canon(v)) for k, v in value.items()), key=repr)
        )
    if isinstance(value, (list, tuple)):
        return tuple(pin_canon(v) for v in value)
    if isinstance(value, float):
        return round(value, 12)
    return value


def outcome_digest(outcome) -> str:
    """The 16-hex-digit digest of one run outcome (trace, clock, metrics)."""
    cluster = outcome.cluster
    payload = repr(
        pin_canon(
            (
                tuple(cluster.trace._rows),
                cluster.sim.now,
                cluster.sim.fired,
                outcome.metrics,
            )
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _digest_cell(*, app: str, strategy: str, seed: int, smoke: bool = True) -> dict:
    """One digest cell, module-level so the pool can ship it by name."""
    from repro.api.registry import get_app

    outcome = get_app(app).run(strategy, seed=seed, smoke=smoke)
    return {"digest": outcome_digest(outcome)}


def digest_cells(seeds, *, jobs: int = 1, smoke: bool = True) -> dict[str, str]:
    """Digest every (registered app, strategy, seed) cell.

    Returns ``{"app/strategy/seed": digest}``.  ``jobs > 1`` computes the
    cells on the shared warm pool; the digests are identical either way
    (each cell re-seeds its own cluster).
    """
    from repro.api.registry import app_names, get_app
    from repro.bench import Scenario
    from repro.exec.engine import evaluate

    scenarios = []
    for name in app_names():
        app = get_app(name)
        for strategy in app.strategies:
            for seed in seeds:
                scenarios.append(
                    Scenario(
                        f"{name}/{strategy}/{seed}",
                        {"app": name, "strategy": strategy, "seed": seed, "smoke": smoke},
                    )
                )
    report = evaluate("seed-digests", scenarios, _digest_cell, jobs=jobs)
    return {result.name: result["digest"] for result in report}
