"""One warnings policy: pyproject's ``filterwarnings`` list, which makes every warning an error.

pytest applies a ``filterwarnings`` mark after that list, so an ``error`` mark
also undoes the list's one ignore, of the warning libcst's import gives.  When
a property fails under such a mark, hypothesis imports libcst to explain the
failure, the warning is raised in pytest's report hook, and the session ends in
INTERNALERROR: no falsifying example is printed and no later test runs.  So no
test module carries such a mark.  A ``catch_warnings`` block inside a test is
fine, as the report hook runs outside it.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).parent


def _error_marks(source: str) -> list[int]:
    """The lines of the ``filterwarnings`` marks in ``source`` whose action is ``error``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "filterwarnings"):
            continue
        owner = node.func.value  # pytest.mark or mark, not the warnings module
        if not ((isinstance(owner, ast.Attribute) and owner.attr == "mark")
                or (isinstance(owner, ast.Name) and owner.id == "mark")):
            continue
        actions = [a.value for a in node.args if isinstance(a, ast.Constant)]
        if any(isinstance(a, str) and a.split(":")[0].strip() == "error" for a in actions):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_module_marks_warnings_as_errors(path):
    assert _error_marks(path.read_text()) == [], f"{path.name}: drop the mark, pyproject errors"


@pytest.mark.parametrize("source, found", [
    ('@pytest.mark.filterwarnings("error")\ndef test(): pass', [1]),
    ('@pytest.mark.filterwarnings("error::RuntimeWarning")\nclass Test: pass', [1]),
    ('pytestmark = [pytest.mark.filterwarnings("error")]', [1]),
    ('from pytest import mark\n@mark.filterwarnings(" error ")\ndef test(): pass', [2]),
    ('pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")', []),
    ('import warnings\nwarnings.filterwarnings("error")', []),
])
def test_the_search_finds_every_form_of_the_mark(source, found):
    assert _error_marks(source) == found


def test_pyproject_makes_every_warning_an_error(pytestconfig):
    assert pytestconfig.getini("filterwarnings")[0] == "error"
