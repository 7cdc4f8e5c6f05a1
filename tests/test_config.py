"""The ``REPRO_*`` knobs stay honest and stay out of the package.

``repro.config``'s docstring table is the one list of environment knobs;
README points readers at the same names.  Deleting a knob from the code
must delete it from both, and a knob read in the code must be listed.
Only ``repro.config`` reads the environment, and the rest of the package
takes nothing from it but the names in ``CONFIG_EXPORTS``: a world
setting reaches ``src/`` as an argument.
"""

import ast
import re
from pathlib import Path

import pytest

from repro import config

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path(config.__file__).resolve().parent
KNOB = re.compile(r"REPRO_[A-Z_]+")
#: what the package may import from ``repro.config``
CONFIG_EXPORTS = {"bench_smoke", "DEFAULT_FAULT_SEED", "WorldSpec"}


def knobs_read():
    """Every ``REPRO_*`` name ``repro.config`` passes around as a string."""
    tree = ast.parse(Path(config.__file__).read_text())
    docstring = tree.body[0].value
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and node is not docstring
        and isinstance(node.value, str)
        and KNOB.fullmatch(node.value)
    }


def knobs_listed():
    """The names in the first column of the module docstring's table."""
    return set(re.findall(r"^``(REPRO_[A-Z_]+)``", config.__doc__, re.MULTILINE))


def test_config_table_lists_exactly_the_knobs_the_module_reads():
    assert knobs_listed() == knobs_read()


def test_readme_mentions_no_knob_the_module_does_not_read():
    readme = (REPO / "README.md").read_text()
    assert set(KNOB.findall(readme)) <= knobs_read()




def ambient_reads(source: str, package: str) -> list[str]:
    """``line: name`` for every environment read in one module's source and
    every import from ``repro.config`` outside ``CONFIG_EXPORTS``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append(f"{node.lineno}: {node.attr}")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name == "repro.config"]
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[: len(parts) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                name = f"{module}.{alias.name}"
                if name in ("os.environ", "os.getenv", "repro.config") or (
                    module == "repro.config" and alias.name not in CONFIG_EXPORTS
                ):
                    found.append(f"{node.lineno}: {name}")
    return found


def test_no_module_outside_config_reads_the_environment():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        package = ".".join(path.relative_to(PACKAGE.parent).parts[:-1])
        if path != PACKAGE / "config.py" and (reads := ambient_reads(path.read_text(), package)):
            offenders[str(path.relative_to(PACKAGE))] = reads
    assert offenders == {}


@pytest.mark.parametrize("source, want", [
    ("import os\nos.environ.get('A')", ["2: environ"]),
    ("from os import getenv", ["1: os.getenv"]),
    ("from .. import config", ["1: repro.config"]),
    ("import repro.config", ["1: repro.config"]),
    ("from ..config import fault_rate, bench_smoke", ["1: repro.config.fault_rate"]),
    ("from .config import fault_rate", []),  # repro.chirp.config, another module
])
def test_the_guard_sees_every_spelling(source, want):
    assert ambient_reads(source, "repro.chirp") == want
