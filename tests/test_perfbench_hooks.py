"""The benchmark under perfbench/ patches methods of the program by name and
imports its public functions; a refactor that moves one should fail here, not
crash a benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("spans", "workloads", "inputs"):
        sys.modules.pop(name, None)


def test_traced_methods_defined_on_their_classes(perfbench_path):
    spans = importlib.import_module("spans")
    for layer, cls_name, method in spans.METHODS:
        cls = getattr(importlib.import_module(f"mpe.{layer}"), cls_name)
        assert method in cls.__dict__, f"mpe.{layer}.{cls_name}.{method}"


def test_traced_private_helpers_exist(perfbench_path):
    spans = importlib.import_module("spans")
    for layer, name in spans.PRIVATE:
        assert callable(getattr(importlib.import_module(f"mpe.{layer}"), name, None))


def test_workloads_import(perfbench_path):
    workloads = importlib.import_module("workloads")
    assert set(workloads.WORKLOADS) == {"corpus-longtail", "train-mpe", "eval-mpe"}
