"""A call census of ``src/repro``: every function runs, or is allowlisted.

Opt-in pytest plugin::

    PYTHONPATH=src python -m pytest -p tests.census
    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest -p tests.census \\
        tests benchmarks/bench_fig5a_syscall_latency.py ... --benchmark-disable

A ``sys.setprofile`` hook records the code object of every frame that
runs.  At the end of the session each code object is matched, by file
and ``co_firstlineno``, to the ``ast`` ``FunctionDef`` of every file in
``src/repro`` (on Python 3.11 ``co_firstlineno`` is the line of the
first decorator, so the index keys each function by that line too).

Interface bodies are skipped by their shape: a body that is only a
docstring, ``...``, ``pass`` or ``raise NotImplementedError``, and any
``@abstractmethod``.  Every other function that never ran must be in
:data:`ALLOWLIST` with a one-line reason, or the session fails; an
allowlist entry whose function ran (or no longer exists) fails it too,
so the list never outlives its reasons.

The hook starts when this module is imported, not in
``pytest_configure``: ``-p`` imports the plugin before any test module
or conftest, so import-time calls (``WorldSpec.from_env`` in
``tests/helpers.py``, decorators run in class bodies) are counted.
The census judges whatever the session ran, so it is meant for a whole
suite; a run of a few test files reports most of ``src/`` as never run.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from types import CodeType
from typing import Iterable

import pytest

#: The package the census covers.
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Functions allowed never to run under the suite, each with its reason.
ALLOWLIST: dict[str, str] = {}

_seen: set[CodeType] = set()


def _hook(frame, event, arg) -> None:
    _seen.add(frame.f_code)


sys.setprofile(_hook)
threading.setprofile(_hook)


@dataclass(frozen=True)
class Function:
    """One ``def`` in the census root."""

    name: str  # ``module:qualname``, e.g. ``repro.chirp.server:ChirpServer.serve``
    path: str
    line: int  # first decorator's line, else the ``def`` line
    lines: int


def _is_interface(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """An abstract method, or a body with nothing to run."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "abstractmethod":
            return True
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(
        body[0].value.value, str
    ):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def index_functions(root: Path) -> dict[tuple[str, int], Function]:
    """``(real path, first line) -> Function`` for every non-interface
    ``def`` in the ``.py`` files under ``root`` (its name's package)."""
    index: dict[tuple[str, int], Function] = {}
    for file in sorted(root.rglob("*.py")):
        path = os.path.realpath(file)
        parts = file.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    if not _is_interface(child):
                        line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                        index[(path, line)] = Function(
                            f"{module}:{qualname}", path, line, child.end_lineno - line + 1
                        )
                    visit(child, f"{qualname}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(file.read_text(), str(file)), "")
    return index


def never_run(
    index: dict[tuple[str, int], Function], ran: Iterable[CodeType]
) -> list[Function]:
    """The indexed functions none of whose code objects is in ``ran``."""
    realpaths: dict[str, str] = {}
    keys = set()
    for code in ran:
        name = code.co_filename
        path = realpaths.get(name)
        if path is None:
            path = realpaths[name] = os.path.realpath(name)
        keys.add((path, code.co_firstlineno))
    return sorted(
        (fn for key, fn in index.items() if key not in keys), key=lambda f: (f.path, f.line)
    )


def judge(never: list[Function], allowlist: dict[str, str]) -> list[str]:
    """The census's complaints: never-run functions off the allowlist,
    and allowlist entries that name no never-run function."""
    names = {fn.name for fn in never}
    problems = [
        f"never ran: {fn.name} ({os.path.relpath(fn.path)}:{fn.line}, {fn.lines} lines)"
        for fn in never
        if fn.name not in allowlist
    ]
    problems += [
        f"allowlisted but ran or gone: {name} (drop the entry)"
        for name in allowlist
        if name not in names
    ]
    return problems


_report: list[str] = []


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    hooked = sys.getprofile() is _hook
    sys.setprofile(None)
    threading.setprofile(None)
    index = index_functions(SRC)
    never = never_run(index, _seen)
    problems = judge(never, ALLOWLIST)
    if not hooked:
        problems.insert(0, "the profile hook was replaced during the session: no census")
    _report.append(
        f"census: {len(never)} of {len(index)} functions in src/repro never ran "
        f"({sum(fn.lines for fn in never)} lines); {len(ALLOWLIST)} allowlisted"
    )
    _report.extend(problems)
    if problems and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter) -> None:
    for line in _report:
        terminalreporter.write_line(line)
