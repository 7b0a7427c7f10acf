#!/usr/bin/env python3
"""Reach check: code under ``src/repro`` that only tests call.

Run by ``make docs-check`` (the CI ``docs`` job).  Two rules, on names and
``ast`` alone — nothing is imported:

1. **Definitions.** Every module-level function and class under
   ``src/repro``, and every method but the ``__dunder__`` and ``_sunder_``
   hooks Python calls by name (``Enum._missing_``), must be *reached*: its name
   appears as a word in some non-test ``.py`` file under ``src/``,
   ``bench/``, ``benchmarks/``, ``examples/`` or ``tools/``, not counting
   the ``def``/``class`` statements that define it and not counting the
   lazy-export tables in package ``__init__``s (they restate every
   export).  A definition with a decorator other than the plain wrappers
   (``@property``, ``@dataclass``, ...) is reached, because the decorator
   registers it (``cli._artifact``); so is an asyncio protocol callback,
   which the event loop calls by name.  One use of a name reaches every
   definition of that name, so collisions only make the check lenient.
2. **Modules.** Every module under ``src/repro`` is imported by a non-test
   file, named in an export table, or named in a ``"module:attr"`` spec
   string (or a bare ``"repro.x"`` string such as a ``-m`` argument).

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
from collections import Counter
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

WORD_RE = re.compile(r"\w+")
MODULE_STRING_RE = re.compile(r"""["'](repro(?:\.\w+)*)[:"']""")


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


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def find_unreached(root: Path) -> dict[str, str]:
    """``{allowlist key: violation}`` for each unreached module and definition."""
    src, package = root / "src", root / "src" / "repro"
    files = [path for top in SCAN_DIRS for path in sorted((root / top).rglob("*.py"))
             if not path.name.startswith("test_")]
    words: Counter[str] = Counter()
    imported: set[str] = set()
    defined: dict[str, tuple[str, ast.AST]] = {}
    for path in files:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        lines = text.splitlines()
        for table in _export_tables(tree):
            imported.update(f"{_module_name(path, src)}.{key.value}" for key in table.keys)
            lines[table.lineno - 1:table.end_lineno] = [""] * (table.end_lineno - table.lineno + 1)
        words.update(WORD_RE.findall("\n".join(lines)))
        imported.update(MODULE_STRING_RE.findall(text))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        for qualname, node in _definitions(tree):
            words[node.name] -= 1
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
        if words[node.name] <= 0 and not _registered(node) and node.name not in CALLBACKS:
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
