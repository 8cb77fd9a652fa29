"""Every function or method that `perfbench/spans.py` traces exists in the
package, so that deleting or renaming one fails here and not at bench time
(`Tracer.install` would raise on it)."""

import importlib
from pathlib import Path
from types import ModuleType

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
