"""The reference layer stays out of production code: no production module
imports ``oracle``, and ``verify`` is imported only by the CLI's ``verify``
subcommand, when it runs.  A process that runs any other subcommand loads
neither."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCES = ("oracle", "verify")


def submodules(node):
    """The dockalloc submodules an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("dockalloc.")]
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "dockalloc":
            return []
        return parts[1:2] or [a.name for a in node.names]
    return [node.module.split(".")[0]] if node.module else [a.name for a in node.names]


def imports(tree):
    """(enclosing function or class, or None at module level; submodule)
    for every import of a dockalloc submodule in a parsed module."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where is None else f"{where}.{child.name}")
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                out.extend((where, module) for module in submodules(child))
            visit(child, where)

    visit(tree, None)
    return out


def test_scanner_reads_every_import_form():
    tree = ast.parse(
        "import dockalloc.udf\n"
        "from dockalloc import demand\n"
        "from dockalloc.allocator import optimize\n"
        "from . import posterior as p\n"
        "from .errors import ValidationError\n"
        "import numpy\n"
        "def f():\n"
        "    class C:\n"
        "        def g(self):\n"
        "            from .oracle import simulate_cost\n"
    )
    assert imports(tree) == [
        (None, "udf"),
        (None, "demand"),
        (None, "allocator"),
        (None, "posterior"),
        (None, "errors"),
        ("f.C.g", "oracle"),
    ]


def test_production_modules_import_no_reference():
    production = sorted(p for p in (SRC / "dockalloc").glob("*.py") if p.stem not in REFERENCES)
    found = []
    for path in production:
        for where, module in imports(ast.parse(path.read_text(), filename=str(path))):
            if module in REFERENCES:
                found.append((path.stem, where, module))
    assert found == [("cli", "cmd_verify", "verify")]


def test_cli_process_loads_no_reference():
    script = "import sys\nimport dockalloc.cli\nprint(sorted(m for m in sys.modules if m.startswith('dockalloc.')))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not {f"dockalloc.{name}" for name in REFERENCES} & set(ast.literal_eval(proc.stdout))
