"""The benchmark tracer wraps bellgate functions by name; every name must exist."""

import importlib.util
from pathlib import Path

import pytest

from bellgate import cli, fock, qudit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module, table",
    [(fock, tracing.FOCK_SPANS), (qudit, tracing.QUDIT_SPANS), (cli, tracing.CLI_SPANS)],
    ids=["fock", "qudit", "cli"],
)
def test_every_traced_name_is_a_module_attribute(module, table):
    missing = [attr for attrs in table.values() for attr in attrs if not hasattr(module, attr)]
    assert missing == []


def test_counted_call_is_a_module_attribute():
    # install() wraps this one by name outside the span tables
    assert hasattr(qudit, "bell_vector")
