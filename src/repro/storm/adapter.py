"""Extract a Blazes dataflow from a Storm topology (paper Section VI-A).

The paper describes a "reusable adapter" that pulls dataflow metadata out
of Storm and hands it to Blazes along with the programmer's annotations.
Here the annotations live on the bolts themselves (``blazes_annotations``)
and the topology's wiring supplies the streams; the result is an ordinary
:class:`repro.core.graph.Dataflow` ready for :func:`repro.core.analyze`.

See ``docs/architecture.md`` for the full paper-section-to-module map.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.annotations import parse_annotation
from repro.core.graph import Dataflow
from repro.errors import StormError
from repro.storm.topology import Topology

__all__ = ["topology_to_dataflow"]


def topology_to_dataflow(
    topology: Topology,
    *,
    seals: dict[str, Iterable[str]] | None = None,
) -> Dataflow:
    """Build the logical dataflow of a topology.

    ``seals`` maps spout names to seal keys (stream annotations the
    programmer asserts about the sources).
    """
    seals = seals or {}
    dataflow = Dataflow(topology.name)

    # Interface names: a component's input interface is named after the
    # source component's output stream; its output stream is named after
    # the component itself.
    for bolt_name in topology.bolts:
        declaration = topology.declaration(bolt_name)
        bolt = declaration.factory()
        component = dataflow.add_component(bolt_name)
        annotations = getattr(bolt, "blazes_annotations", None)
        if not annotations:
            raise StormError(
                f"bolt {bolt_name!r} carries no blazes_annotations; grey-box "
                f"analysis needs one annotation per input/output path"
            )
        for item in annotations:
            annotation = parse_annotation(item["label"], item.get("subscript"))
            component.add_path(str(item["from"]), str(item["to"]), annotation)

    # Spouts are sources: their output streams enter the dataflow from
    # outside, carrying any declared seal.
    for spout_name in topology.spouts:
        for consumer, _grouping in topology.consumers_of(spout_name):
            dataflow.add_stream(
                f"{spout_name}->{consumer}",
                dst=(consumer, _input_interface(dataflow, consumer)),
                seal=seals.get(spout_name),
            )

    # Bolt-to-bolt streams.
    for bolt_name in topology.bolts:
        consumers = topology.consumers_of(bolt_name)
        out_iface = _sole_interface(dataflow, bolt_name, "output")
        if not consumers:
            dataflow.add_stream(f"{bolt_name}->sink", src=(bolt_name, out_iface))
            continue
        for consumer, _grouping in consumers:
            dataflow.add_stream(
                f"{bolt_name}->{consumer}",
                src=(bolt_name, out_iface),
                dst=(consumer, _input_interface(dataflow, consumer)),
            )

    dataflow.validate()
    return dataflow


def _sole_interface(dataflow: Dataflow, component_name: str, side: str) -> str:
    component = dataflow.component(component_name)
    names = (
        component.output_interfaces if side == "output" else component.input_interfaces
    )
    if len(names) != 1:
        raise StormError(
            f"component {component_name!r} must have exactly one {side} "
            f"interface for topology extraction, found {names}; wire "
            f"multi-interface components through the spec API instead"
        )
    return names[0]


def _input_interface(dataflow: Dataflow, component_name: str) -> str:
    return _sole_interface(dataflow, component_name, "input")
