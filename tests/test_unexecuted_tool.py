"""``tools/unexecuted.py``: the line tracer behind the sizing run.

The whole-suite run is exercised by hand (CHANGES.md records its total);
what is pinned here is what lets it get through the suite: past a code
object's first call the tracer hands every frame the same local trace
function, so a test measuring its own allocations does not count the
tracer's, and the report still names the lines no call reached and, by
owner, the functions no call entered.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tools.unexecuted import Unexecuted

HERE = Path(__file__).resolve()


def test_one_local_tracer_serves_every_frame():
    table = Unexecuted(HERE.parent)
    frame = sys._getframe()
    first = table._on_call(frame, "call", None)
    assert first is not None
    assert table._on_call(frame, "call", None) is first
    assert Unexecuted(HERE.parent / "elsewhere")._on_call(frame, "call", None) is None


def test_the_report_names_the_lines_no_call_reached(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("def probe(flag):\n    if flag:\n        return 1\n    return 2\n")
    table = Unexecuted(tmp_path)
    namespace: dict = {}
    previous = sys.gettrace()
    table.arm()
    try:
        exec(compile(source.read_text(), str(source), "exec"), namespace)
        namespace["probe"](True)
        namespace["probe"](True)
    finally:
        sys.settrace(previous)
    assert table.report() == [("probe.py", 4, [4])]


def test_a_shadowed_method_no_call_entered_is_listed_under_its_owner(tmp_path):
    """``A.count`` is never called while ``B.count`` is: a match by bare
    name sees ``count`` used, the view by owner lists ``A.count``."""
    source = tmp_path / "probe.py"
    source.write_text(
        "class A:\n    def count(self):\n        return 1\n\n"
        "class B:\n    def count(self):\n        return 2\n\n"
        "def helper():\n    return [n for n in range(2)]\n"
    )
    table = Unexecuted(tmp_path)
    namespace: dict = {}
    previous = sys.gettrace()
    table.arm()
    try:
        exec(compile(source.read_text(), str(source), "exec"), namespace)
        namespace["B"]().count()
    finally:
        sys.settrace(previous)
    assert table.unentered() == [("probe.py", "A.count"), ("probe.py", "helper")]
