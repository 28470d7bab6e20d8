"""HTTP/1.1 is framed in one module, ``serve/http.py``, and served by
one connection loop, ``serve/service.py``.

The first scan reads every module under ``src/repro`` and fails on a
string literal (docstrings aside) that spells out a status/request line
(``HTTP/1.``) or a ``Content-Length:`` header anywhere else: a second
framer would have to write one of them.  The second fails on a call to
``start_server`` or ``read_request`` outside the service skeleton: a
second server loop would have to make one of them.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.serve import http, service

MARKERS = ("HTTP/1.", "Content-Length:")
PACKAGE = Path(repro.__file__).parent
FRAMER = Path(http.__file__)
LOOP_CALLS = ("start_server", "read_request")
SKELETON = Path(service.__file__)


def _docstring_nodes(tree: ast.AST) -> set[int]:
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def framing_literals(source: str) -> list[str]:
    """Every non-docstring literal in ``source`` that frames HTTP."""
    tree = ast.parse(source)
    docstrings = _docstring_nodes(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Constant) or id(node) in docstrings:
            continue
        value = node.value
        if isinstance(value, bytes):
            value = value.decode("latin-1")
        if isinstance(value, str) and any(marker in value for marker in MARKERS):
            found.append(f"line {node.lineno}: {node.value!r}")
    return found


def test_only_the_http_module_frames_http():
    found = {
        str(path.relative_to(PACKAGE)): hits
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != FRAMER and (hits := framing_literals(path.read_text()))
    }
    assert found == {}


def test_the_scan_sees_the_framer_itself():
    assert framing_literals(FRAMER.read_text())


@pytest.mark.parametrize("snippet", [
    'head = "HTTP/1.1 200 OK\\r\\n"',
    'line = f"{method} {path} HTTP/1.1\\r\\n"',
    'header = f"Content-Length: {len(body)}\\r\\n"',
    'raw = b"HTTP/1.0 404 Not Found\\r\\n"',
    'def f():\n    """Doc."""\n    return "Content-" "Length: 0"',
])
def test_scan_finds_an_injected_literal(snippet):
    assert framing_literals(snippet), snippet


def test_scan_skips_docstrings():
    source = '"""Speaks HTTP/1.1."""\n\ndef f():\n    """Sets Content-Length: n."""\n'
    assert framing_literals(source) == []


def loop_calls(source: str) -> list[str]:
    """Every call in ``source`` that opens a listener or parses a request."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in LOOP_CALLS:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_only_the_service_skeleton_runs_a_server_loop():
    found = {
        str(path.relative_to(PACKAGE)): hits
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != SKELETON and (hits := loop_calls(path.read_text()))
    }
    assert found == {}


def test_the_loop_scan_sees_the_skeleton_itself():
    names = {hit.rsplit(" ", 1)[1] for hit in loop_calls(SKELETON.read_text())}
    assert names == set(LOOP_CALLS)


@pytest.mark.parametrize("snippet", [
    "server = await asyncio.start_server(handle, host, port)",
    "from asyncio import start_server\nstart_server(handle)",
    "request = await read_request(reader)",
    "request = await http.read_request(reader)",
])
def test_loop_scan_finds_an_injected_call(snippet):
    assert loop_calls(snippet), snippet
