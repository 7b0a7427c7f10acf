#!/usr/bin/env python3
"""Reach check: code under ``src/repro`` that only tests call.

Run by ``make docs-check`` (the CI ``docs`` job).  Two rules, on ``ast``
alone — nothing is imported:

1. **Definitions.** Every module-level function and class under
   ``src/repro``, and every method but the ``__dunder__`` and ``_sunder_``
   hooks Python calls by name (``Enum._missing_``), must be *reached* by
   code in some non-test ``.py`` file under ``src/``, ``bench/``,
   ``benchmarks/``, ``examples/`` or ``tools/``.  Code means a name
   (``ast.Name``), an attribute (``obj.name``), an imported name (``from m
   import name``), a string constant that is exactly an identifier
   (``getattr(obj, "name")``) or the attribute of a ``"module:attr"`` spec
   string.  Docstrings, comments, other prose strings and the lazy-export
   tables in package ``__init__``s (they restate every export) reach
   nothing.  A definition with a decorator other than the plain wrappers
   (``@property``, ``@dataclass``, ...) is reached, because the decorator
   registers it (``cli._artifact``); so is an asyncio protocol callback,
   which the event loop calls by name.  One use of a name reaches every
   definition of that name, so collisions only make the check lenient.
2. **Modules.** Every module under ``src/repro`` is imported by a non-test
   file, named in an export table, or named by a ``"module:attr"`` spec
   string or a bare ``"repro.x"`` string (a ``-m`` argument) in code, as
   rule 1 reads code.

Unreached code is deleted or listed in ``tools/check_reach_allowlist.txt``,
one ``path::Qual.name  # reason`` per line (``path`` alone for a module;
paths are relative to ``src/repro``).  An entry without a reason, or one
that is reached again or no longer exists, fails too, so the list cannot
go stale.  Exits 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCAN_DIRS = ("src", "bench", "benchmarks", "examples", "tools")

ALLOWLIST_PATH = "tools/check_reach_allowlist.txt"

#: Decorators that wrap a definition without registering it anywhere.
WRAPPERS = {"dataclass", "property", "setter", "cached_property", "classmethod",
            "staticmethod"}

#: asyncio protocol callbacks: the event loop calls them by name.
CALLBACKS = {"connection_made", "connection_lost", "data_received", "eof_received",
             "datagram_received", "error_received", "pause_writing", "resume_writing",
             "get_buffer", "buffer_updated"}

#: A ``"module:attr"`` spec string, or a bare ``"repro.x"`` module string.
SPEC_RE = re.compile(r"(repro(?:\.\w+)*)(?::([\w.]+))?")


def _decorator_name(node: ast.expr) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _registered(node: ast.AST) -> bool:
    return any(_decorator_name(d) not in WRAPPERS for d in node.decorator_list)


def _definitions(tree: ast.Module):
    """``(qualname, node)`` for each top-level def/class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not re.fullmatch(r"_\w*_", method.name)):
                    yield f"{node.name}.{method.name}", method


def _export_tables(tree: ast.Module):
    """The ``{submodule: names}`` dicts passed to ``lazy_exports``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _decorator_name(node) == "lazy_exports"
                and len(node.args) == 2 and isinstance(node.args[1], ast.Dict)):
            yield node.args[1]


def _prose(tree: ast.Module) -> set[int]:
    """``id``s of the string constants that are statements of their own:
    docstrings and other prose, which reach nothing."""
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)}


def _names(tree: ast.Module):
    """Every name, attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def _strings(tree: ast.Module, skip: set[int]):
    """Every string constant in ``tree`` but those in ``skip``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            yield node.value


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def find_unreached(root: Path) -> dict[str, str]:
    """``{allowlist key: violation}`` for each unreached module and definition."""
    src, package = root / "src", root / "src" / "repro"
    files = [path for top in SCAN_DIRS for path in sorted((root / top).rglob("*.py"))
             if not path.name.startswith("test_")]
    used: set[str] = set()
    imported: set[str] = set()
    defined: dict[str, tuple[str, ast.AST]] = {}
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        skip = _prose(tree)
        for table in _export_tables(tree):
            imported.update(f"{_module_name(path, src)}.{key.value}" for key in table.keys)
            skip.update(id(node) for node in ast.walk(table))
        used.update(_names(tree))
        for value in _strings(tree, skip):
            if value.isidentifier():
                used.add(value)
            elif spec := SPEC_RE.fullmatch(value):
                imported.add(spec[1])
                used.update(spec[2].split(".") if spec[2] else ())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        for qualname, node in _definitions(tree):
            if path.is_relative_to(package):
                rel = path.relative_to(package).as_posix()
                defined[f"{rel}::{qualname}"] = (f"src/repro/{rel}:{node.lineno}", node)
    imported.update(name.rsplit(".", depth)[0] for name in list(imported)
                    for depth in range(1, name.count(".") + 1))
    unreached = {}
    for path in files:
        if path.is_relative_to(package) and _module_name(path, src) not in imported:
            rel = path.relative_to(package).as_posix()
            unreached[rel] = (f"src/repro/{rel}: module {_module_name(path, src)} "
                              "is imported by no non-test file")
    for key, (where, node) in defined.items():
        if node.name not in used and not _registered(node) and node.name not in CALLBACKS:
            unreached[key] = f"{where}: {key.split('::')[1]} is not reached outside tests"
    return unreached


def read_allowlist(root: Path) -> dict[str, str]:
    """``{entry: reason}`` from the allowlist; ``#`` starts the reason."""
    path = root / ALLOWLIST_PATH
    entries = {}
    if path.is_file():
        for line in path.read_text(encoding="utf-8").splitlines():
            entry, _, reason = line.partition("#")
            if entry.strip():
                entries[entry.strip()] = reason.strip()
    return entries


def main(root: Path = REPO) -> int:
    unreached = find_unreached(root)
    allowed = read_allowlist(root)
    errors = [f"{violation} (delete it or allowlist it in {ALLOWLIST_PATH})"
              for key, violation in sorted(unreached.items()) if key not in allowed]
    for entry, reason in sorted(allowed.items()):
        if entry not in unreached:
            errors.append(f"{ALLOWLIST_PATH}: {entry} is reached or gone; drop the entry")
        elif not reason:
            errors.append(f"{ALLOWLIST_PATH}: {entry} has no reason")
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"reach-check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"reach-check: everything under src/repro is reached "
          f"({len(allowed)} allowlisted)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
