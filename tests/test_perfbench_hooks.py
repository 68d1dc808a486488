"""The names perfbench's tracer patches must exist, so `--trace 1` keeps working."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sllift import actions, oracle

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_boundaries_resolve(spans):
    for mod_name, names in spans.BOUNDARIES.items():
        module = importlib.import_module(f"sllift.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"sllift.{mod_name}.{name}"


def test_shell_builds_route_through_actions_iter_shell():
    # actions builds every shell through its own copy of iter_shell, the
    # name a tracer replaces to count shell builds
    assert actions.iter_shell is oracle.iter_shell
