"""Blazes specification files — the "grey box" interface (paper Figure 1).

Programmers of black-box systems describe their dataflow in a YAML file;
the preprocessor turns it into a :class:`~repro.core.graph.Dataflow` for
analysis.  The format follows the annotation excerpts printed in
Section VI of the paper, extended with an explicit ``streams`` section so
the wiring is part of the spec::

    name: wordcount
    components:
      Splitter:
        annotations:
          - { from: tweets, to: words, label: CR }
      Count:
        annotations:
          - { from: words, to: counts, label: OW, subscript: [word, batch] }
      Commit:
        annotations:
          - { from: counts, to: db, label: CW }
    streams:
      - { name: tweets, to: Splitter.tweets, seal: [batch] }   # seal optional
      - { name: words, from: Splitter.words, to: Count.words }
      - { name: counts, from: Count.counts, to: Commit.counts }
      - { name: db, from: Commit.db }
    fds:
      - { determines: [symbol], by: [company], injective: true }

``rep: true`` on a component marks it replicated; ``rep: true`` on a stream
marks the stream replicated.
"""

from __future__ import annotations

from typing import Any

from repro.core.annotations import parse_annotation
from repro.core.fd import FDSet
from repro.core.graph import Dataflow
from repro.core.labels import Label, LabelKind
from repro.errors import SpecError

# External input streams may override their default Async label with one
# of the reportable kinds; Seal is expressed through the `seal:` key and
# the internal kinds (NDRead/Taint) never appear on streams.
_STREAM_LABELS = {
    kind.value: kind
    for kind in (LabelKind.ASYNC, LabelKind.RUN, LabelKind.INST, LabelKind.DIVERGE)
}

__all__ = ["load_spec", "loads_spec", "dump_spec", "build_dataflow", "parse_endpoint"]


def _loader() -> type:
    """libyaml's loader (10x faster) when PyYAML has it: the documents are
    equal.  PyYAML is imported here, at its first use, not with the module."""
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def loads_spec(text: str) -> tuple[Dataflow, FDSet]:
    """Parse a spec document from a string."""
    import yaml

    try:
        document = yaml.load(text, Loader=_loader())
    except yaml.YAMLError as exc:
        raise SpecError(f"invalid YAML: {exc}") from exc
    if not isinstance(document, dict):
        raise SpecError("a Blazes spec must be a YAML mapping")
    return build_dataflow(document)


def load_spec(path: str) -> tuple[Dataflow, FDSet]:
    """Parse a spec document from a file path."""
    with open(path, encoding="utf-8") as handle:
        return loads_spec(handle.read())


def build_dataflow(document: dict[str, Any]) -> tuple[Dataflow, FDSet]:
    """Build a dataflow and FD set from a parsed spec mapping."""
    name = document.get("name", "dataflow")
    dataflow = Dataflow(str(name))

    components = document.get("components")
    if not isinstance(components, dict) or not components:
        raise SpecError("spec requires a non-empty 'components' mapping")
    for comp_name, body in components.items():
        _build_component(dataflow, str(comp_name), body or {})

    streams = document.get("streams")
    if not isinstance(streams, list) or not streams:
        raise SpecError("spec requires a non-empty 'streams' list")
    for entry in streams:
        _build_stream(dataflow, entry)

    fds = FDSet()
    for entry in document.get("fds", []) or []:
        _build_fd(fds, entry)

    dataflow.validate()
    return dataflow, fds


def _build_component(dataflow: Dataflow, name: str, body: dict[str, Any]) -> None:
    if not isinstance(body, dict):
        raise SpecError(f"component {name!r}: body must be a mapping")
    rep = bool(body.get("rep", body.get("Rep", False)))
    component = dataflow.add_component(name, rep=rep)
    annotations = body.get("annotations", body.get("annotation"))
    if annotations is None:
        raise SpecError(f"component {name!r}: missing 'annotations'")
    if isinstance(annotations, dict):
        annotations = [annotations]
    if not isinstance(annotations, list) or not annotations:
        raise SpecError(f"component {name!r}: 'annotations' must be a list")
    for item in annotations:
        if not isinstance(item, dict):
            raise SpecError(f"component {name!r}: each annotation is a mapping")
        try:
            from_iface = str(item["from"])
            to_iface = str(item["to"])
            label = str(item["label"])
        except KeyError as exc:
            raise SpecError(
                f"component {name!r}: annotation requires from/to/label"
            ) from exc
        subscript = item.get("subscript")
        if subscript is not None and not isinstance(subscript, list):
            raise SpecError(f"component {name!r}: subscript must be a list")
        annotation = parse_annotation(label, subscript)
        component.add_path(from_iface, to_iface, annotation)


def parse_endpoint(value: Any, stream_name: str, side: str) -> tuple[str, str] | None:
    """Parse one stream endpoint: ``"Component.interface"`` or a 2-list.

    The single shared parsing rule for spec files and the programmatic
    API (:mod:`repro.api`); the 2-element form disambiguates component
    names that themselves contain dots (see :func:`_dump_endpoint`).
    """
    if value is None:
        return None
    if isinstance(value, str):
        if "." not in value:
            raise SpecError(
                f"stream {stream_name!r}: {side} endpoint {value!r} must be "
                f"'Component.interface'"
            )
        comp, iface = value.split(".", 1)
        return comp, iface
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return str(value[0]), str(value[1])
    raise SpecError(f"stream {stream_name!r}: malformed {side} endpoint {value!r}")


def _build_stream(dataflow: Dataflow, entry: Any) -> None:
    if not isinstance(entry, dict):
        raise SpecError("each stream entry must be a mapping")
    try:
        name = str(entry["name"])
    except KeyError as exc:
        raise SpecError("stream entries require a 'name'") from exc
    src = parse_endpoint(entry.get("from"), name, "from")
    dst = parse_endpoint(entry.get("to"), name, "to")
    seal = entry.get("seal")
    if seal is not None and not isinstance(seal, list):
        raise SpecError(f"stream {name!r}: 'seal' must be a list of attributes")
    rep = bool(entry.get("rep", entry.get("Rep", False)))
    label = _stream_label(entry.get("label"), name, seal)
    dataflow.add_stream(name, src=src, dst=dst, seal=seal, rep=rep, label=label)


def _stream_label(value: Any, stream_name: str, seal: Any) -> Label | None:
    if value is None:
        return None
    if seal is not None:
        raise SpecError(
            f"stream {stream_name!r}: give either a label override or a seal"
        )
    try:
        kind = _STREAM_LABELS[str(value)]
    except KeyError:
        raise SpecError(
            f"stream {stream_name!r}: unknown label {value!r}; "
            f"have {sorted(_STREAM_LABELS)}"
        ) from None
    return Label(kind)


def _build_fd(fds: FDSet, entry: Any) -> None:
    if not isinstance(entry, dict):
        raise SpecError("each fd entry must be a mapping")
    try:
        rhs = entry["determines"]
        lhs = entry["by"]
    except KeyError as exc:
        raise SpecError("fd entries require 'determines' and 'by'") from exc
    if not isinstance(lhs, list) or not isinstance(rhs, list):
        raise SpecError("fd 'determines' and 'by' must be attribute lists")
    injective = bool(entry.get("injective", True))
    fds.add([str(a) for a in lhs], [str(a) for a in rhs], injective=injective)


def _dump_endpoint(endpoint: tuple[str, str]) -> Any:
    """Spec syntax for one endpoint.

    The compact ``Component.interface`` string is ambiguous when the
    component name itself contains a dot (the parser splits on the first
    one), so such endpoints fall back to the explicit two-element form the
    parser also accepts.
    """
    component, iface = endpoint
    if "." in component:
        return [component, iface]
    return f"{component}.{iface}"


def dump_spec(dataflow: Dataflow, fds: FDSet | None = None) -> str:
    """Serialize a dataflow (and optional FDs) back to spec YAML."""
    import yaml

    components: dict[str, Any] = {}
    for component in dataflow.components:
        annotations = []
        for path in component.paths:
            item: dict[str, Any] = {
                "from": path.from_iface,
                "to": path.to_iface,
                "label": path.annotation.kind.value,
            }
            gate = path.annotation.gate
            if isinstance(gate, frozenset):
                item["subscript"] = sorted(gate)
            annotations.append(item)
        body: dict[str, Any] = {"annotations": annotations}
        if component.rep:
            body["rep"] = True
        components[component.name] = body

    streams = []
    for stream in dataflow.streams:
        item: dict[str, Any] = {"name": stream.name}
        if stream.src is not None:
            item["from"] = _dump_endpoint(stream.src)
        if stream.dst is not None:
            item["to"] = _dump_endpoint(stream.dst)
        if stream.seal_key:
            item["seal"] = sorted(stream.seal_key)
        if stream.rep:
            item["rep"] = True
        if stream.label is not None:
            item["label"] = stream.label.kind.value
        streams.append(item)

    document: dict[str, Any] = {
        "name": dataflow.name,
        "components": components,
        "streams": streams,
    }
    if fds is not None and len(fds):
        document["fds"] = [
            {
                "determines": sorted(fd.rhs),
                "by": sorted(fd.lhs),
                "injective": fd.injective,
            }
            for fd in fds
        ]
    return yaml.safe_dump(document, sort_keys=False)
