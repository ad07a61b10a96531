"""The README's config table and Library imports match the code."""

import os
import re
import types

import modetangle
from modetangle.runconfig import _KEYS

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_text():
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def test_config_table_lists_the_accepted_keys():
    table = readme_text().split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    first_cells = [row.split("|")[1] for row in table.splitlines() if row.startswith("| `")]
    keys = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(keys) == sorted(_KEYS)


def test_library_section_imports_the_public_names():
    block = re.search(r"from modetangle import \((.*?)\)", readme_text(), re.DOTALL).group(1)
    imported = set(re.findall(r"\w+", block))
    public = {
        name
        for name, value in vars(modetangle).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == imported
