"""The app registry: the single catalog behind CLI, bench, and audit."""

from __future__ import annotations

import pytest

from repro.api import (
    BlazesApp,
    app_names,
    audit_app_names,
    get_app,
    iter_apps,
    register,
)
from repro.api.registry import _REGISTRY
from repro.errors import ApiError


def test_builtin_apps_are_registered():
    assert {"wordcount", "adnet", "kvs"} <= set(app_names())
    assert {"wordcount", "adnet", "kvs"} <= set(audit_app_names())


def test_get_app_returns_the_registered_instance():
    assert get_app("wordcount") is get_app("wordcount")
    assert [app.name for app in iter_apps()] == list(app_names())


def test_unknown_app_is_a_clean_error():
    with pytest.raises(ApiError, match="registered apps"):
        get_app("definitely-not-an-app")


def test_reregistering_a_name_is_an_error():
    name = "tmp-registry-test"
    try:
        first = register(BlazesApp(name, backend="storm"))
        register(first)  # same object: idempotent
        with pytest.raises(ApiError, match="already registered"):
            register(BlazesApp(name, backend="storm"))
        del _REGISTRY[name]  # redefining a name is removing it first
        second = register(BlazesApp(name, backend="bloom"))
        assert get_app(name) is second
    finally:
        _REGISTRY.pop(name, None)


def test_apps_without_audit_profile_are_not_audit_apps():
    name = "tmp-no-audit"
    try:
        register(BlazesApp(name, backend="storm"))
        assert name in app_names()
        assert name not in audit_app_names()
    finally:
        _REGISTRY.pop(name, None)
