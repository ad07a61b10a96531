"""The README's config table, report keys and Library example match the code."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modetangle
from modetangle.cli import main
from modetangle.runconfig import _KEYS

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# Runs the Python code in argv[1] where numpy cannot be imported: a finder
# put first on sys.meta_path refuses it and each of its submodules.
WITHOUT_NUMPY = """
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseNumpy())
try:
    import numpy
except ImportError:
    pass
else:
    sys.exit("numpy was imported")
namespace = {}
exec(compile(sys.argv[1], "README.md", "exec"), namespace)
print(namespace["result"].delivered_rate)
"""


def readme_text():
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def library_section():
    return readme_text().split("## Library", 1)[1].split("\n## ", 1)[0]


def library_example():
    return re.search(r"```python\n(.*?)```", library_section(), re.DOTALL).group(1)


def test_config_table_lists_the_accepted_keys():
    table = readme_text().split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    first_cells = [row.split("|")[1] for row in table.splitlines() if row.startswith("| `")]
    keys = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(keys) == sorted(_KEYS)


def test_library_section_imports_the_public_names():
    block = re.search(r"from modetangle import \((.*?)\)", readme_text(), re.DOTALL).group(1)
    imported = set(re.findall(r"\w+", block))
    assert set(modetangle.__all__) == imported
    for name in modetangle.__all__:
        value = getattr(modetangle, name)
        assert value is vars(importlib.import_module(value.__module__))[name], name


@pytest.mark.parametrize(
    "stem", sorted(path.stem for path in Path(modetangle.__file__).parent.glob("*.py"))
)
def test_every_module_all_lists_only_names_it_holds(stem):
    name = modetangle.__name__ if stem == "__init__" else f"{modetangle.__name__}.{stem}"
    module = importlib.import_module(name)
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_library_section_names_only_attributes_that_exist():
    """Each backticked `module.attr` in the Library section, module a modetangle submodule, resolves.

    `from modetangle.module import attr` counts too; a file name such as
    `states.py` does not.
    """
    package = Path(modetangle.__file__).parent
    prose = re.sub(r"```.*?```", "", library_section(), flags=re.DOTALL)
    reference = re.compile(r"(?:from\s+)?(?:modetangle\.)?(\w+)(?:\.|\s+import\s+)(\w+)")
    references = [
        match.groups()
        for match in map(reference.match, re.findall(r"`([^`]+)`", prose))
        if match and match[2] != "py" and (package / f"{match[1]}.py").is_file()
    ]
    assert len(references) >= 5
    missing = [
        f"{module}.{attr}" for module, attr in references
        if not hasattr(importlib.import_module(f"modetangle.{module}"), attr)
    ]
    assert not missing


def test_library_section_example_runs():
    block = library_example()
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert 0.0 < namespace["result"].delivered_rate < 1.0


def test_library_section_example_runs_without_numpy():
    """Every name in modetangle.__all__, as the example uses it, runs where numpy cannot be imported."""
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, library_example()], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert 0.0 < float(proc.stdout) < 1.0


def test_oscillator_section_lists_the_report_keys(tmp_path):
    section = readme_text().split("### Oscillator", 1)[1].split("\n### ", 1)[0]
    table = section.split("| report key | meaning |", 1)[1].split("\n\n", 1)[0]
    keys = [re.match(r"\| `([^`]+)` \|", row).group(1) for row in table.splitlines() if row.startswith("| `")]
    out = tmp_path / "report.json"
    assert main(["oscillator", "--out", str(out), "--lambda", "0.1"]) == 0
    assert keys == sorted(json.loads(out.read_text()))
