"""Static checks of the demo scripts: they compile and import only names
that the layerr package still provides. Running the demos takes tens of
seconds, so this guards API deletions without executing them."""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_imports_exist(path):
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    compile(tree, str(path), "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "layerr":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "layerr":
                    importlib.import_module(alias.name)
