import ast
import re
from pathlib import Path

import phasetv

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_imports_only_exported_names():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "phasetv"
        for alias in node.names
    }
    assert imported
    assert imported <= set(phasetv.__all__), imported - set(phasetv.__all__)
