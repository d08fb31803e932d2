"""The package surface: what `import hmpident` offers and how its modules meet."""
import ast
import types
from pathlib import Path

import hmpident as hi

SRC = Path(hi.__file__).parent


def test_no_module_imports_another_modules_private_name():
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossings += [f"{path.name}: from .{node.module or ''} import {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert crossings == []


def test_all_is_written_out_and_resolves():
    assert len(hi.__all__) == len(set(hi.__all__)) <= 48
    assert all(hasattr(hi, name) for name in hi.__all__)
    modules = [name for name in hi.__all__ if isinstance(getattr(hi, name), types.ModuleType)]
    assert modules == ["errors"]
    assert "marginals" in hi.__all__ and "Verdict" not in hi.__all__
    # submodules left __all__ but stay attributes of the package
    assert hi.hmp.equivalent_up_to_permutation is hi.equivalent_up_to_permutation
