"""Every function or method that `perfbench/spans.py` traces, and every
`bc.<module>.<name>` that `perfbench/workloads.py` calls, exists in the
package, so that deleting or renaming one fails here and not at bench time
(`Tracer.install` or the workload would raise on it)."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load_spans() -> ModuleType:
    # compiled from its source, so that no bytecode is written next to it
    mod = ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


def test_traced_names_resolve():
    targets = load_spans().TARGETS
    assert targets
    for modname, attr, name, work in targets:
        obj = importlib.import_module(f"blockcone.{modname}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: blockcone.{modname}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"blockcone.{modname}.{attr}"
        assert work is None or callable(work)


def workload_calls() -> set[str]:
    """The dotted names after `bc.` of every call in workloads.py whose
    callee is an attribute chain on `bc`, its handle on the package."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not isinstance(node, ast.Call):
            continue
        parts, f = [], node.func
        while isinstance(f, ast.Attribute):
            parts.append(f.attr)
            f = f.value
        if isinstance(f, ast.Name) and f.id == "bc" and parts:
            names.add(".".join(reversed(parts)))
    return names


def test_workload_calls_resolve():
    calls = workload_calls()
    assert {"example36.example_build", "make_model"} <= calls
    for name in sorted(calls):
        head, *rest = name.split(".")
        try:
            obj = importlib.import_module(f"blockcone.{head}")
        except ModuleNotFoundError:
            obj = getattr(importlib.import_module("blockcone"), head)
        for part in rest:
            assert hasattr(obj, part), f"blockcone.{name}"
            obj = getattr(obj, part)
        assert callable(obj), f"blockcone.{name}"
