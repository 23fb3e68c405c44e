"""README's Library section names functions the package has, with their own
parameter names."""

import importlib
import inspect
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# a backticked `module.name(arguments)`, which may break across lines
CALL = re.compile(r"`(\w+)\.(\w+)\(([^`]*)\)`")
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def library_calls() -> list[tuple[str, str, str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return CALL.findall(FENCE.sub("", section))


CALLS = library_calls()


def test_library_section_has_calls_to_check():
    assert len(CALLS) >= 10


@pytest.mark.parametrize(
    "module, name, arguments", CALLS, ids=[f"{module}.{name}" for module, name, _ in CALLS]
)
def test_library_call_names_real_parameters(module, name, arguments):
    owner = importlib.import_module(f"netreplay.{module}")
    assert hasattr(owner, name), f"netreplay.{module} has no {name}"
    parameters = inspect.signature(getattr(owner, name)).parameters
    for argument in arguments.split(","):
        argument = argument.split("=")[0].strip()  # a keyword argument's name
        if IDENTIFIER.fullmatch(argument):
            assert argument in parameters, f"{module}.{name} takes no {argument!r}"
