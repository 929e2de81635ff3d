"""The package root's names and the README's Library example.

The root exports only the names the example imports from ``chirospec``,
and ``__version__``; every other name is imported from its module.
"""

import re
from pathlib import Path

import numpy as np

import chirospec

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first Python code block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_every_public_name_resolves():
    namespace = {}
    exec("from chirospec import *", namespace)
    assert set(chirospec.__all__) <= set(namespace)
    imports = re.search(r"from chirospec import \((.*?)\)", library_example(), re.DOTALL)
    names = {name.strip() for name in imports.group(1).split(",") if name.strip()}
    assert set(chirospec.__all__) == names | {"__version__"}


def test_readme_library_example_runs():
    namespace = {}
    exec(library_example(), namespace)
    scan = namespace["scan"]
    for curve in (namespace["left"], namespace["right"]):
        assert isinstance(curve, np.ndarray) and curve.dtype == float
        assert curve.shape == (scan.points.size,)
        assert not curve.flags.writeable
    assert isinstance(namespace["distinguishable"], bool)
