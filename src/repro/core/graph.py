"""Logical dataflow graphs (paper Section II).

A dataflow is a directed graph of *components* connected by *streams*.
Components expose named input and output interfaces; every pair of
interfaces a message can traverse is a *path* carrying one
:class:`~repro.core.annotations.PathAnnotation`.  Streams associate an
output interface of one component with an input interface of another; a
stream whose source is ``None`` is an external ingress (a stream source)
and a stream whose destination is ``None`` is an external egress (a sink).

The graph is purely logical: multiplicity of physical instances is captured
by the ``rep`` (replication) annotation, not by duplicating nodes
(paper Section II distinguishes logical dataflows from physical ones).

The graph keeps its adjacency: :meth:`Dataflow.add_stream`, the only place
a stream enters a graph, files it under its destination component, in
declaration order.
:meth:`Dataflow.streams_into` is a lookup, so everything that walks the
graph (analysis, strategy synthesis, lints) is linear in components +
streams + paths.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

from repro.core.annotations import PathAnnotation
from repro.core.labels import Label
from repro.errors import DataflowError

__all__ = ["Path", "Component", "Stream", "Dataflow"]


@dataclasses.dataclass(frozen=True, slots=True)
class Path:
    """An annotated input-to-output path through one component."""

    from_iface: str
    to_iface: str
    annotation: PathAnnotation

    def __str__(self) -> str:
        return f"{self.from_iface} -> {self.to_iface} : {self.annotation}"


class Component:
    """A logical unit of computation and storage in a dataflow.

    ``rep`` marks the component as replicated (the paper's ``Rep``
    annotation): its instances receive the same input streams and its
    output streams are replicated streams.
    """

    __slots__ = ("name", "rep", "_paths")

    def __init__(self, name: str, *, rep: bool = False) -> None:
        if not name:
            raise DataflowError("components require a non-empty name")
        self.name = name
        self.rep = rep
        # keyed by (from_iface, to_iface), in declaration order: the key is
        # the duplicate check, so declaring n paths costs n lookups
        self._paths: dict[tuple[str, str], Path] = {}

    @property
    def paths(self) -> tuple[Path, ...]:
        """All annotated paths through this component."""
        return tuple(self._paths.values())

    def add_path(
        self, from_iface: str, to_iface: str, annotation: PathAnnotation
    ) -> Path:
        """Declare a path ``from_iface -> to_iface`` with its annotation."""
        if (from_iface, to_iface) in self._paths:
            raise DataflowError(
                f"duplicate path {from_iface} -> {to_iface} on component {self.name}"
            )
        path = self._paths[from_iface, to_iface] = Path(from_iface, to_iface, annotation)
        return path

    @property
    def input_interfaces(self) -> tuple[str, ...]:
        """Input interface names, in declaration order."""
        return tuple(dict.fromkeys(from_iface for from_iface, _ in self._paths))

    @property
    def output_interfaces(self) -> tuple[str, ...]:
        """Output interface names, in declaration order."""
        return tuple(dict.fromkeys(to_iface for _, to_iface in self._paths))

    def __repr__(self) -> str:
        rep = ", rep" if self.rep else ""
        return f"Component({self.name}{rep}, paths={len(self._paths)})"


@dataclasses.dataclass(slots=True)
class Stream:
    """A named stream connecting interfaces (or the outside world).

    ``src`` / ``dst`` are ``(component_name, interface_name)`` pairs or
    ``None`` for external endpoints, fixed once the stream is declared (the
    graph's adjacency is keyed on them).  ``seal_key`` records a ``Seal[key]``
    stream annotation; ``rep`` a ``Rep`` annotation; ``label`` optionally
    overrides the default ``Async`` label of an *external* input stream.
    """

    name: str
    src: tuple[str, str] | None
    dst: tuple[str, str] | None
    seal_key: frozenset[str] | None = None
    rep: bool = False
    label: Label | None = None

    @property
    def is_external_input(self) -> bool:
        """True when the stream enters the dataflow from outside."""
        return self.src is None

    @property
    def is_external_output(self) -> bool:
        """True when the stream leaves the dataflow (a sink)."""
        return self.dst is None

    def __str__(self) -> str:
        src = "~" if self.src is None else f"{self.src[0]}.{self.src[1]}"
        dst = "~" if self.dst is None else f"{self.dst[0]}.{self.dst[1]}"
        extras = []
        if self.seal_key:
            extras.append(f"Seal[{','.join(sorted(self.seal_key))}]")
        if self.rep:
            extras.append("Rep")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return f"{self.name}: {src} -> {dst}{suffix}"


def _endpoint(name: str, side: str, value: object) -> tuple[str, str] | None:
    """``value`` as a ``(component, interface)`` pair of strings, or ``None``."""
    if value is None:
        return None
    if (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and all(isinstance(part, str) for part in value)
    ):
        return tuple(value)
    raise DataflowError(
        f"stream {name!r}: {side} must be a (component, interface) pair of "
        f"strings or None, got {value!r}"
    )


class Dataflow:
    """A named logical dataflow: components plus the streams wiring them."""

    def __init__(self, name: str = "dataflow") -> None:
        self.name = name
        self._components: dict[str, Component] = {}
        self._streams: dict[str, Stream] = {}
        # adjacency: the streams into a component, keyed by its name and
        # appended by add_stream in declaration order
        self._into: dict[str, list[Stream]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_component(self, name: str, *, rep: bool = False) -> Component:
        """Create and register a new component."""
        if name in self._components:
            raise DataflowError(f"duplicate component {name!r}")
        component = Component(name, rep=rep)
        self._components[name] = component
        return component

    def add_stream(
        self,
        name: str,
        *,
        src: tuple[str, str] | None = None,
        dst: tuple[str, str] | None = None,
        seal: Iterable[str] | None = None,
        rep: bool = False,
        label: Label | None = None,
    ) -> Stream:
        """Create and register a stream.

        ``src=None`` declares an external input; ``dst=None`` a sink.
        ``seal`` attaches a ``Seal[key]`` annotation and ``rep`` a ``Rep``
        annotation.
        """
        if name in self._streams:
            raise DataflowError(f"duplicate stream {name!r}")
        if src is None and dst is None:
            raise DataflowError(f"stream {name!r} must touch at least one component")
        src, dst = _endpoint(name, "src", src), _endpoint(name, "dst", dst)
        if seal is not None and label is not None:
            # a seal *is* the stream's label (Seal[key]); carrying both is
            # contradictory, and the spec format cannot express it
            raise DataflowError(
                f"stream {name!r}: give either a label override or a seal"
            )
        if label is not None and (label.is_internal or label.key is not None):
            # internal kinds never appear on streams and keyed kinds are
            # expressed through `seal`; allowing them here would build
            # dataflows the spec format cannot round-trip
            raise DataflowError(
                f"stream {name!r}: {label.kind.value} is not a valid stream "
                f"label override"
            )
        seal_key = None
        if seal is not None:
            seal_key = frozenset(seal)
            if not seal_key:
                raise DataflowError(f"stream {name!r}: a seal key must be non-empty")
        stream = Stream(name, src, dst, seal_key=seal_key, rep=rep, label=label)
        self._streams[name] = stream
        if dst is not None:
            if dst[0] in self._into:
                self._into[dst[0]].append(stream)
            else:
                # most keys hold one stream, and a literal is allocated
                # for exactly one (an append to [] reserves four slots)
                self._into[dst[0]] = [stream]
        return stream

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components.values())

    @property
    def streams(self) -> tuple[Stream, ...]:
        return tuple(self._streams.values())

    def component(self, name: str) -> Component:
        """Look up a component by name."""
        try:
            return self._components[name]
        except KeyError:
            raise DataflowError(f"unknown component {name!r}") from None

    def stream(self, name: str) -> Stream:
        """Look up a stream by name."""
        try:
            return self._streams[name]
        except KeyError:
            raise DataflowError(f"unknown stream {name!r}") from None

    def streams_into(self, component: str) -> tuple[Stream, ...]:
        """Streams whose destination is ``component``."""
        return tuple(self._into.get(component, ()))

    @property
    def external_outputs(self) -> tuple[Stream, ...]:
        """Streams that leave the dataflow (sinks)."""
        return tuple(s for s in self._streams.values() if s.is_external_output)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`DataflowError` on structural problems.

        Checks that every stream endpoint names a declared component and an
        interface the component actually exposes, that every component has
        at least one path, and that every input interface is fed by at
        least one stream (otherwise the analysis could not label it).
        """
        exposed: dict[str, dict[str, frozenset[str]]] = {"output": {}, "input": {}}
        for component in self._components.values():
            if not component.paths:
                raise DataflowError(f"component {component.name!r} declares no paths")
            exposed["output"][component.name] = frozenset(component.output_interfaces)
            exposed["input"][component.name] = frozenset(component.input_interfaces)
        for stream in self._streams.values():
            for side, endpoint in (("output", stream.src), ("input", stream.dst)):
                if endpoint is None:
                    continue
                comp_name, iface = endpoint
                self.component(comp_name)  # unknown component: DataflowError
                if iface not in exposed[side][comp_name]:
                    raise DataflowError(
                        f"stream {stream.name!r}: {comp_name!r} has no {side} "
                        f"interface {iface!r}"
                    )
        fed = {stream.dst for stream in self._streams.values()}
        for component in self._components.values():
            for in_iface in component.input_interfaces:
                if (component.name, in_iface) not in fed:
                    raise DataflowError(
                        f"input interface {component.name}.{in_iface} is not fed "
                        f"by any stream"
                    )

    def __repr__(self) -> str:
        return (
            f"Dataflow({self.name!r}, components={len(self._components)}, "
            f"streams={len(self._streams)})"
        )
