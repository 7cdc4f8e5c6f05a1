"""The ``REPRO_*`` knobs stay honest and stay out of the package.

``repro.config``'s docstring table is the one list of environment knobs;
README points readers at the same names.  Deleting a knob from the code
must delete it from both, and a knob read in the code must be listed.
Only ``repro.config`` reads the environment, and the rest of the package
takes nothing from it but the names in ``CONFIG_EXPORTS``: a world
setting reaches ``src/`` as an argument.  The CI ``test`` job sets only
knobs the module reads, and some leg sets each world knob.
"""

import ast
import re
from dataclasses import fields
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


def world_knobs():
    """``WorldSpec`` field -> the knob ``WorldSpec.from_env`` reads it from."""
    tree = ast.parse(Path(config.__file__).read_text())
    from_env = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "from_env"
    )
    return {
        keyword.arg: keyword.value.args[0].value
        for node in ast.walk(from_env) if isinstance(node, ast.Call)
        for keyword in node.keywords
    }


def ci_test_job(workflow: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """The CI ``test`` job's ``env:`` block and its matrix legs, read by
    indentation: CI installs no YAML parser."""
    env, legs, section, in_job = {}, [], None, False
    for line in workflow.splitlines():
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())
        if indent == 2:
            in_job = text == "test:"
        elif not in_job:
            continue
        elif indent == 4:
            section = "env" if text == "env:" else "strategy" if text == "strategy:" else None
        elif section == "strategy" and text == "include:":
            section = "legs"
        elif section == "env":
            key, _, value = text.partition(":")
            env[key] = value.strip()
        elif section == "legs":
            if text.startswith("- "):
                legs.append({})
                text = text[2:]
            key, _, value = text.partition(":")
            legs[-1][key] = value.strip().strip('"')
    return env, legs


MATRIX_VALUE = re.compile(r"\$\{\{ matrix\.(\w+) \|\| '' \}\}")


def ci_leg_problems(workflow: str) -> list[str]:
    """Every ``REPRO_*`` name in the CI ``test`` job's ``env:`` must be read
    by ``repro.config``, and every world knob must be set (non-empty, not
    ``0``) by at least one matrix leg: a leg left setting a deleted knob
    would silently re-run the plain suite."""
    env, legs = ci_test_job(workflow)
    named = {name for name in env if KNOB.fullmatch(name)}
    problems = [f"{name} is not read by repro.config" for name in sorted(named - knobs_read())]
    for knob in sorted(world_knobs().values()):
        ref = MATRIX_VALUE.fullmatch(env.get(knob, ""))
        if ref is None or not any(leg.get(ref.group(1), "") not in ("", "0") for leg in legs):
            problems.append(f"no leg sets {knob}")
    return problems


def test_every_world_field_has_a_knob():
    assert set(world_knobs()) == {field.name for field in fields(config.WorldSpec)}


def test_ci_legs_set_only_read_knobs_and_every_world_knob():
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    _env, legs = ci_test_job(workflow)
    assert [leg["suite"] for leg in legs] == ["plain", "faulted", "fastlane"]
    assert ci_leg_problems(workflow) == []


STALE_ENV = "      REPRO_RETIRED: ${{ matrix.retired || '' }}\n"


@pytest.mark.parametrize("edit, want", [
    (lambda text: text.replace("    env:\n", "    env:\n" + STALE_ENV, 1),
     ["REPRO_RETIRED is not read by repro.config"]),
    (lambda text: text.replace('            cache: "1"\n', ""), ["no leg sets REPRO_CACHE"]),
    (lambda text: text.replace("      REPRO_FAULT_RATE:", "      REPRO_FAULT:"),
     ["REPRO_FAULT is not read by repro.config", "no leg sets REPRO_FAULT_RATE"]),
], ids=["stale-knob", "unset-knob", "renamed-knob"])
def test_the_ci_guard_catches_a_planted_stale_leg(edit, want):
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    planted = edit(workflow)
    assert planted != workflow
    assert ci_leg_problems(planted) == want


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
