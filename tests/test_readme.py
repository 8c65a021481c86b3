"""The README's library example runs, and imports only public names: the
public surface is what the README and the CLI use."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import goldsub

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_imports_only_public_names():
    imported = [alias.name for node in ast.walk(ast.parse(library_example()))
                if isinstance(node, ast.ImportFrom) and node.module == "goldsub"
                for alias in node.names]
    assert imported
    assert set(imported) <= set(goldsub.__all__)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
