"""blockcone benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload q2-theorems --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --self-test             # reduced inputs + tampering

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  Results, span traces and per-layer
summaries are also written under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("q3-build", "q2-theorems", "tiny-search")
SPEC = ROOT / "BENCHMARK.json"  # the metrics' names and units
SETUP_PROBES = 8  # extra processes that only set up, for the setup_s median
DEADLINE_S = 170  # every run ends well inside 180 s


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, extra: list[str], deadline: float,
           capture: bool = True) -> str:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), workload,
           "--spawned", repr(spawned)] + extra
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload}: timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: exit code {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    extra = ["--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)]
    if trace:
        extra += ["--trace-out", str(outdir / f"spans-{stem}.tsv.gz")]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            out = _child(name, ["--probe"], deadline)
            setups.append(json.loads(out.splitlines()[-1])["setup_s"])
    child = json.loads(_child(name, extra, deadline).splitlines()[-1])
    setups.append(child["setup_s"])
    units = _units("per_layer" if trace else "end_to_end")
    if trace:
        if set(child["layers"]) != set(units):
            raise ChildFailed(f"{name}: per-layer metrics "
                              f"{sorted(set(child['layers']) ^ set(units))} "
                              f"are not both measured and listed in {SPEC.name}")
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in child["layers"].items()}
        (outdir / f"layers-{stem}.json").write_text(json.dumps(
            {"rounds": len(child["round_s"]), "layers": child["layers"],
             "spans": child["span_summary"]}, indent=1, sort_keys=True))
    else:
        values = {"setup_s": statistics.median(setups),
                  "certificate_s": statistics.median(child["round_s"]),
                  "peak_rss_mb": child["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for p in child["problems"]:
        sys.stderr.write(f"{name}: check failed: {p}\n")
    result = {"correct": child["n_problems"] == 0,
              "attempted": child["attempted"], "failed": child["failed"],
              "metrics": metrics}
    (outdir / f"result-{stem}.json").write_text(json.dumps(
        dict(result, round_s=child["round_s"], setup_samples=setups),
        indent=1))
    return result


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer" metrics."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "blockcone" / "__init__.py").is_file():
        sys.stderr.write(f"error: no blockcone sources under {ROOT / 'src'}\n")
        return 2
    if not SPEC.is_file():
        sys.stderr.write(f"error: {SPEC} is missing\n")
        return 2
    if args.self_test:
        deadline = time.monotonic() + DEADLINE_S
        bad = 0
        for name in WORKLOADS:
            try:
                _child(name, ["--self-test"], deadline, capture=False)
            except ChildFailed as exc:
                sys.stderr.write(f"self-test FAILED: {exc}\n")
                bad += 1
        return 1 if bad else 0
    if args.workload is None:
        ap.error("--workload or --self-test is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  deadline)
        except ChildFailed as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        if len(names) > 1:
            print(name)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
