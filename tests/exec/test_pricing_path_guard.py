"""Cold runs are priced through one path: the executor.

:func:`~repro.exec.executor.execute` prices projection cells by
schedule group and sends what grouped pricing rejects down the retry
ladder.  The scan reads every module under ``src/repro`` and fails on
a call to ``run_with_retry`` (the ladder) or ``price_cell`` (the one
pricer) outside ``exec/`` and ``engine/study_vec.py``: a serve path
that kept its own copy of that job would have to make one of them.

One caller is named as an exception: the chaos drill's bit-identity
oracle, ``serve/chaos.py::expected_responses``, prices every request
one run at a time on purpose, because it is the reference the served
answers are checked against.
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent
CALLS = ("run_with_retry", "price_cell")
#: Where pricing lives: the executor package and the pricing engine.
OWNERS = ("exec/", "engine/study_vec.py")
#: (module, outermost function) allowed to price runs itself.
ORACLE = ("serve/chaos.py", "expected_responses")


def pricing_calls(source: str) -> list[tuple[str, int, str]]:
    """Every ladder or pricer call in ``source``, as ``(outermost
    enclosing function or method, or "", line, callee)``."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = owner
            if not owner and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in CALLS:
                    found.append((owner, child.lineno, name))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def _scan() -> dict[str, list[tuple[str, int, str]]]:
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative.startswith(OWNERS):
            continue
        if hits := pricing_calls(path.read_text()):
            found[relative] = hits
    return found


def test_only_the_executor_prices_runs():
    found = {
        module: [hit for hit in hits if (module, hit[0]) != ORACLE]
        for module, hits in _scan().items()
    }
    assert {module: hits for module, hits in found.items() if hits} == {}


def test_the_named_oracle_still_prices_alone():
    """The exception is not stale: the oracle is the one caller left."""
    assert {
        (module, owner) for module, hits in _scan().items() for owner, _l, _n in hits
    } == {ORACLE}


def test_the_scan_sees_the_executor_itself():
    names = {
        name
        for _owner, _line, name in pricing_calls((PACKAGE / "exec" / "executor.py").read_text())
    }
    assert names == set(CALLS)


@pytest.mark.parametrize("snippet", [
    "payload = run_with_retry(spec, policy)",
    "payload = retry.run_with_retry(spec, RetryPolicy(max_attempts=2))",
    "(result,) = price_cell(program, [platform], precision)",
    "def f(spec):\n    return study_vec.price_cell(program, platforms, precision)",
])
def test_scan_finds_an_injected_call(snippet):
    assert pricing_calls(snippet), snippet


def test_scan_names_the_outermost_enclosing_function():
    source = (
        "def expected_responses(bodies):\n"
        "    def price(spec):\n"
        "        return run_with_retry(spec, policy)\n"
    )
    assert pricing_calls(source) == [("expected_responses", 3, "run_with_retry")]
