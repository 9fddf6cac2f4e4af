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
reformatting, comments and docstrings cannot move.  Then it lists every
function no test entered by its owner-qualified name (``code.co_qualname``,
Python >= 3.11), so a method shadowed by a same-named method of another
class, which a match by bare name misses, is listed under its class.

Lines that only run inside the evaluation engine's forked pool workers are
not seen: the workers trace into their own copy of the table.  The run is
several times slower than a plain one, so this is an instrument for sizing
a change and not a CI job.
"""

from __future__ import annotations

import inspect
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


def _compiled(path: Path) -> list[CodeType]:
    return list(code_objects(compile(path.read_text(), str(path), "exec")))


def executable_lines(path: Path) -> set[int]:
    """Every line of ``path`` that some instruction maps to."""
    return set().union(*(own_lines(code) for code in _compiled(path)))


class Unexecuted:
    """The run's table of the lines each traced code object has yet to run.

    One local trace function serves every frame, and a line event only
    discards from a set: past a code object's first call the tracer
    allocates nothing, so a test measuring its own allocations
    (``tracemalloc``) does not count the tracer's.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        # per code object, the lines still unseen: a function whose lines
        # have all run is no longer traced, which is most of the speed
        self._todo: dict[CodeType, set[int]] = {}
        prefix, todo = str(root), self._todo

        def local(frame, event, arg):
            if event == "line":
                todo[frame.f_code].discard(frame.f_lineno)
            return local

        def on_call(frame, event, arg):
            code = frame.f_code
            if not code.co_filename.startswith(prefix):
                return None
            lines = todo.get(code)
            if lines is None:
                lines = todo[code] = own_lines(code)
            return local if lines else None

        self._on_call = on_call

    def arm(self) -> None:
        sys.settrace(self._on_call)

    def report(self) -> list[tuple[str, int, list[int]]]:
        """``(relative path, executable lines, unexecuted lines)`` per file."""
        hits: dict[str, set[int]] = {}
        for code, unseen in self._todo.items():
            hits.setdefault(code.co_filename, set()).update(own_lines(code) - unseen)
        rows = []
        for path in sorted(self.root.rglob("*.py")):
            lines = executable_lines(path)
            missed = sorted(lines - hits.get(str(path), set()))
            rows.append((str(path.relative_to(self.root)), len(lines), missed))
        return rows

    def unentered(self) -> list[tuple[str, str]]:
        """``(relative path, qualified name)`` of every ``def`` no call
        entered: a function's code object, not a module, class body,
        lambda or comprehension."""
        entered = {(code.co_filename, code.co_firstlineno, code.co_qualname) for code in self._todo}
        return [
            (str(path.relative_to(self.root)), code.co_qualname)
            for path in sorted(self.root.rglob("*.py"))
            for code in _compiled(path)
            if code.co_flags & inspect.CO_NEWLOCALS
            and not code.co_name.startswith("<")
            and (str(path), code.co_firstlineno, code.co_qualname) not in entered
        ]


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
    functions = _TABLE.unentered()
    terminalreporter.section("src/repro functions no test entered")
    for name, qualname in functions:
        write(f"{name}: {qualname}")
    write(f"total: {len(functions)} functions")
