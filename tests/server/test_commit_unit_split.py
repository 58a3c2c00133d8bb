"""The commit unit lives in one module, asserted (see DESIGN.md).

A WAL transaction is opened, committed and aborted by the kernel —
``KernelDatabaseSystem.session_begin`` / ``session_commit`` /
``session_abort`` in ``mbds/kds.py`` — and by nothing else: the backend
controller only appends ops to the transaction it is handed.  And there
are two ways to settle a pending pre-image, seal and rollback; the third
(``discard_pending``) is gone from every layer.  Checked on the AST, so
a comment or a docstring cannot satisfy or break it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__path__[0])
SETTLING = {"begin", "commit", "abort"}


def wal_settling_calls(tree: ast.AST) -> list[str]:
    """Every ``wal.begin(...)`` / ``<x>.wal.commit(...)`` / ... call."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        receiver = node.func.value
        name = (
            receiver.id
            if isinstance(receiver, ast.Name)
            else receiver.attr if isinstance(receiver, ast.Attribute) else None
        )
        if name == "wal" and node.func.attr in SETTLING:
            found.append(f"wal.{node.func.attr}")
    return found


def names_in(tree: ast.AST) -> set[str]:
    """Every identifier the module defines, reads, calls or sends as a
    worker command (string constants included, for the IPC command table)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def test_only_the_kds_opens_and_settles_wal_transactions():
    callers = {}
    for path in sorted(SRC.rglob("*.py")):
        calls = wal_settling_calls(ast.parse(path.read_text()))
        if calls:
            callers[path.relative_to(SRC).as_posix()] = sorted(set(calls))
    assert callers == {"mbds/kds.py": ["wal.abort", "wal.begin", "wal.commit"]}


def test_no_layer_has_a_third_settle_verb_or_a_second_commit_path():
    gone = ("discard_pending", "_commit_journaled")
    holders = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if any(
            old in name
            for name in names_in(ast.parse(path.read_text()))
            for old in gone
        )
    ]
    assert holders == []
