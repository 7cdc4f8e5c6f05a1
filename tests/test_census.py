"""The call census (``tests/census.py``): it finds and names never-run
functions, skips interface bodies, and keeps its allowlist honest."""

import importlib.util
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

# importing the plugin starts its profile hook: a session that did not
# load it with ``-p tests.census`` stops the hook again at once
_LOADED_AS_PLUGIN = "tests.census" in sys.modules
from tests import census  # noqa: E402

if not _LOADED_AS_PLUGIN:
    sys.setprofile(None)
    threading.setprofile(None)

PLANTED = '''
    import abc


    def used():
        return 1


    def planted():
        return 2


    class Shape(abc.ABC):
        @abc.abstractmethod
        def area(self):
            return 0

        def sides(self):
            """Only a docstring."""

        def corners(self):
            raise NotImplementedError

        def name(self):
            ...

        @property
        def label(self):
            return "shape"
'''


def plant(root: Path) -> Path:
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    module = package / "planted.py"
    module.write_text(textwrap.dedent(PLANTED))
    return module


def test_the_census_names_a_never_run_function(tmp_path):
    module_path = plant(tmp_path)
    spec = importlib.util.spec_from_file_location("planted", module_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.used()
    index = census.index_functions(tmp_path / "src" / "repro")
    # interface bodies are not indexed at all
    assert sorted(fn.name for fn in index.values()) == [
        "repro.planted:Shape.label",
        "repro.planted:planted",
        "repro.planted:used",
    ]
    never = census.never_run(index, [module.used.__code__])
    assert [fn.name for fn in never] == ["repro.planted:planted", "repro.planted:Shape.label"]
    # a decorated function is keyed by its first decorator's line
    label = next(fn for fn in never if fn.name.endswith("label"))
    assert module_path.read_text().splitlines()[label.line - 1].strip() == "@property"
    problems = census.judge(never, {"repro.planted:Shape.label": "a reason"})
    assert len(problems) == 1 and problems[0].startswith("never ran: repro.planted:planted ")
    stale = census.judge([], {"repro.planted:planted": "a reason"})
    assert stale == ["allowlisted but ran or gone: repro.planted:planted (drop the entry)"]


def test_a_session_under_the_plugin_fails_on_a_planted_function(tmp_path):
    """End to end: the plugin, run as ``-p tests.census`` over a session
    that calls one of two planted functions, fails it and names the
    other."""
    plant(tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "__init__.py").write_text("")
    (tmp_path / "tests" / "census.py").write_text(Path(census.__file__).read_text())
    (tmp_path / "tests" / "test_it.py").write_text(
        "from repro.planted import used\n\n\ndef test_used():\n    assert used() == 1\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "tests.census", "-p", "no:cacheprovider",
         "tests/test_it.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 passed" in run.stdout
    assert "never ran: repro.planted:planted " in run.stdout
    assert "repro.planted:used" not in run.stdout


def test_every_allowlist_entry_states_its_reason():
    assert len(census.ALLOWLIST) <= 15
    for name, reason in census.ALLOWLIST.items():
        assert name.startswith("repro.") and ":" in name, name
        assert reason.strip() and "\n" not in reason, name
