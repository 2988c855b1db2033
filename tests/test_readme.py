"""The README's Library example imports only names the package exports."""

import ast
import re
from pathlib import Path

import prodcoef

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
