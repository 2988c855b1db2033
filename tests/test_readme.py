"""The README's examples use only what the package has: the Library
block imports exported names, and the Command line block's commands
parse."""

import ast
import re
import shlex
from pathlib import Path

import prodcoef
from prodcoef.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text().split("## Library", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README Library section has no python block"
    return match.group(1)


def test_library_block_imports_exist():
    names = [
        alias.name
        for node in ast.walk(ast.parse(_library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "prodcoef"
        for alias in node.names
    ]
    assert names, "README Library block imports nothing from prodcoef"
    missing = [name for name in names if not hasattr(prodcoef, name)]
    assert not missing, f"README imports names prodcoef does not export: {missing}"


def _command_lines() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```\n(.*?)```", section, re.DOTALL)
    assert match, "README Command line section has no code block"
    return [line for line in match.group(1).splitlines() if line.startswith("prodcoef ")]


def test_command_line_block_parses():
    # A renamed or removed flag fails here rather than misleading a reader.
    lines = _command_lines()
    assert lines, "README Command line block has no prodcoef commands"
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
