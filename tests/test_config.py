"""The ``REPRO_*`` knob table stays honest.

``repro.config``'s docstring table is the one list of environment knobs;
README points readers at the same names.  Deleting a knob from the code
must delete it from both, and a knob read in the code must be listed.
"""

import ast
import re
from pathlib import Path

from repro import config

REPO = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")


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
