"""The public API carries no dead code: every exported name is used by the package itself."""
import ast
import os
import pathlib
import subprocess
import sys
import types

import g2flow

PACKAGE = pathlib.Path(g2flow.__file__).parent


def _loaded_names() -> dict[str, set[str]]:
    """Names read as variables or attributes, per module, outside ``__init__``.

    Definitions (``def``, ``class``, assignment targets) and imports are not
    reads, so a name counts only where some code uses it.
    """
    out: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.setdefault(node.id, set()).add(path.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.setdefault(node.attr, set()).add(path.name)
    return out


def test_every_exported_name_has_a_caller_in_the_package():
    loaded = _loaded_names()
    exported = [n for n in g2flow.__all__ if not isinstance(getattr(g2flow, n), types.ModuleType)]
    assert exported
    unused = [n for n in exported if n not in loaded]
    assert not unused, f"exported but used by no module of the package: {unused}"


def test_importing_the_package_loads_no_scipy():
    """scipy is a test oracle only: the package, its CLI and its checks run without it."""
    code = "import sys, g2flow, g2flow.cli, g2flow.verification; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
