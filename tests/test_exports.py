"""Every exported name exists: a stale ``__all__`` entry otherwise fails only on ``from pvcg.X import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pvcg


def test_every_export_is_defined_and_every_reexport_is_exported():
    for info in pkgutil.iter_modules(pvcg.__path__):
        module = importlib.import_module(f"pvcg.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"pvcg.{info.name}.__all__ names undefined {missing}"

    tree = ast.parse(Path(pvcg.__file__).read_text(encoding="utf-8"))
    reexports = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names if not alias.name.startswith("_")]
    assert reexports
    unlisted = [
        f"{source}.{name}" for source, name in reexports
        if name not in importlib.import_module(f"pvcg.{source}").__all__
    ]
    assert not unlisted, f"pvcg/__init__.py re-exports names its source module does not export: {unlisted}"
