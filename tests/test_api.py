"""Tests of the public surface: the README "Python API" section runs as
written, and the package exports exactly the names that section documents."""

import re
from pathlib import Path
from types import ModuleType

import numpy as np

import swflood

README = Path(__file__).resolve().parent.parent / "README.md"


def api_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]


def test_readme_python_api_example_runs_as_written():
    code = re.search(r"```python\n(.*?)```", api_section(), re.S).group(1)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    # The example steps a flat lake at rest, which is a bitwise fixed point.
    assert scope["t"] > 0.0
    assert (scope["state"].h[2:-2, 2:-2] == 1.0).all()
    assert not np.any(scope["state"].hu) and not np.any(scope["state"].hv)


def test_package_exports_exactly_the_documented_names():
    section = api_section()
    imported = re.search(r"from swflood import (.*)", section).group(1)
    documented = {name.strip() for name in imported.split(",")}
    documented |= set(re.findall(r"`([A-Za-z_]\w*)`", section))
    public = {name for name, value in vars(swflood).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(public) == swflood.__all__
    assert set(swflood.__all__) == documented
