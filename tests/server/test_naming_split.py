"""The network/ vs server/ naming split, asserted (see DESIGN.md).

``repro.network`` is the CODASYL *network data model* — Bachman
networks, nothing to do with sockets.  ``repro.server`` is MLDS as a
*network service* — sockets, nothing to do with data models.  These
tests keep the two from bleeding into each other as the codebase grows.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.network
import repro.server

SOCKET_WORLD = {"socket", "asyncio", "ssl", "selectors", "http"}
MODEL_MODULES = {
    "repro.network",
    "repro.functional",
    "repro.relational",
    "repro.hierarchical",
}


def imported_modules(package) -> set[str]:
    """Top-level module names imported anywhere in *package*'s sources."""
    names: set[str] = set()
    for path in Path(package.__path__[0]).glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module)
    return names


def test_network_package_is_a_data_model_not_a_socket_layer():
    imports = imported_modules(repro.network)
    assert not {name.split(".")[0] for name in imports} & SOCKET_WORLD
    assert not any(name.startswith("repro.server") for name in imports)


def test_server_package_defines_no_data_model():
    imports = imported_modules(repro.server)
    assert not any(
        name == model or name.startswith(model + ".")
        for name in imports
        for model in MODEL_MODULES
    )


def test_both_packages_document_the_split():
    assert "network data model" in (repro.server.__doc__ or "")
    design = Path(repro.server.__path__[0]).parents[2] / "DESIGN.md"
    text = design.read_text()
    assert "`network/` vs `server/` naming" in text


def test_tcp_surface_lives_only_under_server():
    # The one place `asyncio`/`socket` may appear in the library.
    src = Path(repro.server.__path__[0]).parents[1]
    offenders = []
    for path in src.rglob("*.py"):
        if "server" in path.parts or path.name == "cli.py":
            continue  # cli.py is the wiring that boots the server
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            modules = (
                [alias.name for alias in node.names]
                if isinstance(node, ast.Import)
                else [node.module]
                if isinstance(node, ast.ImportFrom) and node.module
                else []
            )
            if {m.split(".")[0] for m in modules} & {"socket", "asyncio"}:
                offenders.append(path.name)
    assert not offenders


def test_server_runs_on_plain_threads():
    # One thread per connection (DESIGN.md): no event loop, no executor.
    imports = imported_modules(repro.server)
    assert not {name.split(".")[0] for name in imports} & {"asyncio", "concurrent"}
