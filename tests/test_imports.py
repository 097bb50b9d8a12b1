import ast
from pathlib import Path

import darkcount

SOURCES = sorted(Path(darkcount.__file__).parent.glob("*.py"))


def test_no_module_imports_another_modules_private_name():
    private = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                private += [f"{path.name}: from .{node.module} import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert len(SOURCES) > 1
    assert not private, private
