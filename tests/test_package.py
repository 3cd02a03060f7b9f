"""The package exports exactly the names the README's examples import."""

import importlib
import re
from pathlib import Path

import tvroad

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_imports() -> set:
    names = set()
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                            flags=re.MULTILINE | re.DOTALL):
        for imported in re.findall(r"^from tvroad import (.+)$", block, flags=re.MULTILINE):
            names.update(name.strip() for name in imported.split(","))
    return names


def test_exports_are_the_readme_imports():
    names = _readme_imports()
    assert names
    assert set(tvroad.__all__) - {"__version__"} == names
    for name in names:
        assert getattr(tvroad, name) is not None


def test_package_cluster_is_the_function():
    assert importlib.import_module("tvroad.cluster").cluster is tvroad.cluster
