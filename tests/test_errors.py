"""Every library failure is a `uavfl.errors` class, so the CLI prints it as
one `uavfl: error:` line instead of a traceback."""

import ast
import inspect
import pathlib

import pytest

import uavfl
from uavfl import errors

PACKAGE = pathlib.Path(uavfl.__file__).parent
ERROR_CLASSES = {name for name, obj in vars(errors).items()
                 if inspect.isclass(obj) and issubclass(obj, errors.UavFlError)}


def test_errors_defines_the_four_classes():
    assert ERROR_CLASSES == {"UavFlError", "InvariantViolation", "CohortInfeasible",
                             "ConfigError"}


def raised_name(node: ast.Raise) -> str | None:
    """The class name a `raise` statement names, None for a bare re-raise."""
    exc = node.exc
    if exc is None:
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_raise_is_an_error_class(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stray = [f"{path.name}:{node.lineno} raises {name}" for node in ast.walk(tree)
             if isinstance(node, ast.Raise)
             and (name := raised_name(node)) is not None and name not in ERROR_CLASSES]
    assert not stray
