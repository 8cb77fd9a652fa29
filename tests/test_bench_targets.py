"""Every function or method that `perfbench/spans.py` traces, every
`bc.<module>.<name>` that `perfbench/workloads.py` calls, and every manifest
key that the workloads read exists in the package, so that deleting or
renaming one fails here and not at bench time (`Tracer.install` or the
workload would raise on it, a missing key inside a round's check)."""

import ast
import importlib
import json
from pathlib import Path
from types import ModuleType

from blockcone import cli, example36
from blockcone.model import make_model

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


def _str_key(node: ast.Subscript) -> str | None:
    key = node.slice
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    return None


def manifest_reads() -> dict[str, set[str]]:
    """The string keys that workloads.py reads off a manifest, by the
    manifest's source: `<name>.manifest()`, `<name>["manifest"]`, or a name
    bound to one of these."""
    tree = ast.parse(WORKLOADS.read_text())

    def source(node) -> str | None:
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "manifest"
                and isinstance(node.func.value, ast.Name)):
            return f"{node.func.value.id}.manifest()"
        if (isinstance(node, ast.Subscript) and _str_key(node) == "manifest"
                and isinstance(node.value, ast.Name)):
            return f'{node.value.id}["manifest"]'
        return None

    bound = {node.targets[0].id: source(node.value)
             for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name) and source(node.value)}
    reads: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript) or _str_key(node) is None:
            continue
        src = source(node.value)
        if src is None and isinstance(node.value, ast.Name):
            src = bound.get(node.value.id)
        if src is not None:
            reads.setdefault(src, set()).add(_str_key(node))
    return reads


def test_workload_manifest_keys_exist(tmp_path):
    # the workloads read an example bundle's manifest (q2-theorems from its
    # file, q3-build and q2-theorems from `Bundle.manifest()`) and an mps
    # model's (tiny-search)
    path = tmp_path / "b.json"
    assert cli.main(["construct", "example36", "--q", "2", "--seed", "0",
                     "--out", str(path)]) == 0
    manifests = {
        "bundle.manifest()": example36.load_bundle(path).manifest(),
        'data["manifest"]': json.loads(path.read_text())["manifest"],
        "model.manifest()": make_model(2, 2, 2).manifest(),
    }
    reads = manifest_reads()
    assert set(reads) == set(manifests)
    assert {"big_modulus", "xprime_index"} <= reads["bundle.manifest()"]
    for src, keys in sorted(reads.items()):
        missing = keys - set(manifests[src])
        assert not missing, f"{src} lacks {sorted(missing)}"
