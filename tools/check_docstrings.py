#!/usr/bin/env python3
"""Docstring-coverage check for the public API.

Walks the packages listed in CHECKED_PACKAGES and requires a docstring on
every public module, class, function and method (names not starting with
an underscore, plus ``__init__.py`` modules).  Exits non-zero listing the
offenders, so CI fails when new public API lands undocumented.

Usage:  python tools/check_docstrings.py [package-dir ...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Packages (directories, walked recursively) and single tool files whose
#: public API must be fully documented.
CHECKED_PACKAGES = (
    REPO_ROOT / "src" / "repro" / "observe",
    REPO_ROOT / "src" / "repro" / "elevate",
    REPO_ROOT / "src" / "repro" / "engine",
    REPO_ROOT / "src" / "repro" / "serve",
    REPO_ROOT / "src" / "repro" / "verify",
    REPO_ROOT / "src" / "repro" / "tune",
    REPO_ROOT / "tools" / "dashboard.py",
    REPO_ROOT / "tools" / "events.py",
    REPO_ROOT / "tools" / "bench_compare.py",
)


def is_public(name: str) -> bool:
    return not name.startswith("_")


def display_path(path: Path) -> Path:
    """Repo-relative when possible, absolute otherwise."""
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:
        return path


def missing_docstrings(path: Path) -> list[str]:
    """Return ``file:line: name`` entries for undocumented public defs."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rel = display_path(path)
    missing: list[str] = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{rel}:1: module")

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}{child.name}"
                if is_public(child.name) and ast.get_docstring(child) is None:
                    missing.append(f"{rel}:{child.lineno}: {qualname}")
                # only descend into classes: nested functions are private
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{qualname}.")

    visit(tree, "")
    return missing


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv[1:]] or list(CHECKED_PACKAGES)
    offenders: list[str] = []
    files = 0
    for root in roots:
        paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in paths:
            files += 1
            offenders.extend(missing_docstrings(path))
    if offenders:
        print(f"missing docstrings ({len(offenders)}):")
        for line in offenders:
            print(f"  {line}")
        return 1
    print(f"docstring coverage OK: {files} files, all public defs documented")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
