"""The benchmark calls bellgate by name: the tracer wraps functions by name,
and each workload calls its entry point. Every name must exist, and every
workload's warm-up, a small call of its entry point, must run."""

import importlib.util
from pathlib import Path

import pytest

from bellgate import cli, fock, qudit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """Import a benchmark file read-only, under a name of its own."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")


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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_warm_up_runs(name):
    workloads.WORKLOADS[name].warm_up()
