"""The public surface: each module's ``__all__`` matches what it defines,
and the README's library quick start runs as written."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import re
from pathlib import Path

import pytest

import pnrecon

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = [
    importlib.import_module(f"pnrecon.{info.name}")
    for info in pkgutil.iter_modules(pnrecon.__path__)
]


@pytest.mark.parametrize(
    "module",
    [pnrecon] + [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_every_listed_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_public_definition_is_listed(module):
    defined = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []


def test_readme_quick_start_prints_the_stated_error():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    code = block.group(1)
    stated = float(re.search(r"print\(.*\)\s*#\s*~([0-9.]+)", code).group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert abs(float(out.getvalue()) - stated) <= 0.005
