"""The public surface: each module's ``__all__`` matches what it defines,
the README's library quick start runs as written, and the README names
every CLI flag."""

import argparse
import contextlib
import importlib
import inspect
import io
import pkgutil
import re
from pathlib import Path

import pytest

import pnrecon
from pnrecon import cli

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


def test_every_cli_flag_is_in_the_readme():
    text = README.read_text(encoding="utf-8")
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {(parser.prog, flag) for a in parser._actions for flag in a.option_strings}
    flags |= {
        (name, flag)
        for name, sub in commands.choices.items()
        for action in sub._actions
        for flag in action.option_strings
    }
    missing = sorted(
        (name, flag) for name, flag in flags
        if flag.startswith("--") and flag != "--help"
        and not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)
    )
    assert missing == []
