"""Which executable ``src/repro`` lines does a pytest run never execute?

A ``sys.settrace`` line tracer (``coverage`` is not installed here), loaded
as a pytest plugin from the repository root::

    PYTHONPATH=src python -m pytest -q -p tools.unexecuted

It arms itself before ``repro`` is imported and again before every test —
a test that installs a tracer of its own (``tests/core/test_linearity.py``)
or clears the hook does not blind the rest of the run — and prints, after
the test summary, each file's executable lines (every line some code object
of the file maps an instruction to, by ``code.co_lines()``) and the ones no
test reached.  The executable-line total is a size reading that
reformatting, comments and docstrings cannot move.

Lines that only run inside the evaluation engine's forked pool workers are
not seen: the workers trace into their own copy of the table.  The run is
several times slower than a plain one, so this is an instrument for sizing
a change and not a CI job.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from types import CodeType

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def line_tracer(prefix: str, on_line: Callable[[CodeType, int], object]):
    """A ``sys.settrace`` function reporting each line event under ``prefix``.

    ``on_line(code, lineno)`` is called for every line executed in a file
    whose name starts with ``prefix``; frames of other files are not traced
    at all.
    """

    def local(frame, event, arg):
        if event == "line":
            on_line(frame.f_code, frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return on_call


def count_lines(prefix: str, call: Callable, *args) -> int:
    """Line events executed in files under ``prefix`` while ``call`` runs:
    a cost that repeats exactly from run to run, whatever the host."""
    lines = 0

    def count(code, lineno) -> None:
        nonlocal lines
        lines += 1

    previous = sys.gettrace()
    sys.settrace(line_tracer(prefix, count))
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return lines


def code_objects(code: CodeType) -> Iterator[CodeType]:
    """``code`` and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from code_objects(const)


def own_lines(code: CodeType) -> set[int]:
    """The source lines ``code``'s own instructions map to."""
    return {line for _start, _end, line in code.co_lines() if line}


def executable_lines(path: Path) -> set[int]:
    """Every line of ``path`` that some instruction maps to."""
    module = compile(path.read_text(), str(path), "exec")
    return set().union(*(own_lines(code) for code in code_objects(module)))


class Unexecuted:
    """The run's table of executed ``(file, line)`` pairs."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.hits: dict[str, set[int]] = {}
        # per code object, the lines still unseen: a function whose lines
        # have all run is no longer traced, which is most of the speed
        self._todo: dict[CodeType, set[int]] = {}
        self._prefix = str(root)

    def _on_call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self._prefix):
            return None
        todo = self._todo.get(code)
        if todo is None:
            todo = self._todo[code] = own_lines(code)
        if not todo:
            return None
        seen = self.hits.setdefault(code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                todo.discard(frame.f_lineno)
                seen.add(frame.f_lineno)
            return local

        return local

    def arm(self) -> None:
        sys.settrace(self._on_call)

    def report(self) -> list[tuple[str, int, list[int]]]:
        """``(relative path, executable lines, unexecuted lines)`` per file."""
        rows = []
        for path in sorted(self.root.rglob("*.py")):
            lines = executable_lines(path)
            missed = sorted(lines - self.hits.get(str(path), set()))
            rows.append((str(path.relative_to(self.root)), len(lines), missed))
        return rows


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


_TABLE = Unexecuted(SRC)


def pytest_configure(config) -> None:
    _TABLE.arm()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    _TABLE.arm()
    yield


def pytest_terminal_summary(terminalreporter) -> None:
    sys.settrace(None)
    rows = _TABLE.report()
    write = terminalreporter.write_line
    terminalreporter.section("unexecuted src/repro lines")
    for name, executable, missed in rows:
        if missed:
            write(f"{name}: {len(missed)}/{executable}  {_ranges(missed)}")
    write(
        f"total: {sum(len(missed) for _n, _e, missed in rows)} of "
        f"{sum(executable for _n, executable, _m in rows)} executable lines "
        f"unexecuted in {len(rows)} files"
    )
