"""The application registry: one catalog for CLI, benchmarks, and audit.

Every reference app registers its :class:`~repro.api.app.BlazesApp` at
import time; :func:`get_app` lazily imports :mod:`repro.apps` so the
built-in catalog is always available without import-order gymnastics.
``blazes run <app>``, ``blazes audit --apps ...``, and the fig11-fig14
benchmarks all enumerate this registry instead of hardcoding app names.
"""

from __future__ import annotations

import sys

from repro.api.app import BlazesApp
from repro.errors import ApiError

__all__ = ["app_names", "audit_app_names", "get_app", "iter_apps", "register"]

_REGISTRY: dict[str, BlazesApp] = {}


def register(app: BlazesApp) -> BlazesApp:
    """Add an app to the registry; a name is registered once."""
    if app.name in _REGISTRY and _REGISTRY[app.name] is not app:
        raise ApiError(f"app {app.name!r} is already registered")
    if app.origin_module is None:
        # the caller's module is the one whose import re-registers the app
        # in a fresh process (pool audit workers import it by name)
        caller = sys._getframe(1).f_globals.get("__name__")
        if caller and caller != __name__:
            app.origin_module = caller
    _REGISTRY[app.name] = app
    return app


def _ensure_builtin_apps() -> None:
    # repro.apps.* modules register their apps as an import side effect
    import repro.apps  # noqa: F401


def get_app(name: str) -> BlazesApp:
    """Look up a registered app by name."""
    _ensure_builtin_apps()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ApiError(
            f"unknown app {name!r}; registered apps: {app_names()}"
        ) from None


def app_names() -> tuple[str, ...]:
    """Registered app names, in registration order."""
    _ensure_builtin_apps()
    return tuple(_REGISTRY)


def audit_app_names() -> tuple[str, ...]:
    """Registered apps that carry an audit profile."""
    _ensure_builtin_apps()
    return tuple(name for name, app in _REGISTRY.items() if app.auditable)


def iter_apps() -> tuple[BlazesApp, ...]:
    """Every registered app, in registration order."""
    _ensure_builtin_apps()
    return tuple(_REGISTRY.values())
