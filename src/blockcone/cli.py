"""Command-line front end: construction, search, verification, reporting.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Every report
embeds the full run configuration, so identical configs reproduce identical
mathematical content.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import example36, mps, pg, verify
from .gf import FieldError, cached_field
from .model import make_model
from .pg import GeometryError, PointSet, load_point_set

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _ms_since(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1e3, 3)


# ---------------------------------------------------------------------------
# subcommands


def cmd_ff(args) -> int:
    f = cached_field(args.p, args.k)
    _emit({"config": {"command": "ff", "p": args.p, "k": args.k},
           "q": f.q, "manifest": f.manifest(),
           "modulus": [int(c) for c in f.modulus]}, args.out)
    return EXIT_OK


def cmd_construct_mps(args) -> int:
    model = make_model(args.q1, args.n, args.r)
    frame = mps.frame_make(model, args.s, seed=args.seed)
    bbar = load_point_set(args.bbar)
    if bbar.space != model.sigma_prime:
        raise GeometryError("Bbar file does not live in the model's Sigma'")
    B = mps.mps_build(frame, bbar)
    config = {"command": "construct mps", "q1": args.q1, "n": args.n,
              "r": args.r, "s": args.s, "seed": args.seed, "bbar": args.bbar}
    bundle = {"kind": "mps", "config": config, "manifest": model.manifest(),
              "s": args.s, "seed": args.seed,
              "bbar": [int(x) for x in bbar.ranks],
              "B": [int(x) for x in B.ranks],
              "size": len(B),
              "predicted": mps.mps_size_predict(len(bbar), model.q1,
                                                model.n, args.s)}
    _emit(bundle, args.out)
    return EXIT_OK


def cmd_construct_example36(args) -> int:
    bundle = example36.example_build(args.q, args.seed)
    data = example36.bundle_to_dict(bundle)
    data["config"] = {"command": "construct example36", "q": args.q,
                      "seed": args.seed}
    _emit(data, args.out)
    return EXIT_OK


def cmd_search_fblocking(args) -> int:
    model = make_model(args.q1, args.n, args.r)
    frame = mps.frame_make(model, args.s, seed=args.seed)
    found = mps.f_search_minimal(frame, args.max_size)
    report = {
        "config": {"command": "search fblocking", "q1": args.q1, "n": args.n,
                   "r": args.r, "s": args.s, "seed": args.seed,
                   "max_size": args.max_size},
        "manifest": model.manifest(),
        "found": [{"bbar": [int(x) for x in item["bbar"].ranks],
                   "size": len(item["bbar"]),
                   "B_size": mps.mps_size_predict(len(item["bbar"]),
                                                  model.q1, model.n, args.s),
                   "trivial": item["trivial"]} for item in found],
    }
    _emit(report, args.out)
    return EXIT_OK


def _load_any_bundle(path):
    """(Pi-space point set, manifest, example bundle or None)."""
    with open(path) as fh:
        data = json.load(fh)
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "example36":
        bundle = example36.load_bundle(path, strict=False)
        return bundle.B, bundle.manifest(), bundle
    if kind == "mps":
        pg.check_fields(data, path, int_lists=("B",))
        man = data.get("manifest")
        pg.check_fields(man, f"{path}: manifest", ints=("q1", "n", "r"))
        model = make_model(man["q1"], man["n"], man["r"])
        B = PointSet(model.pi_space, np.array(data["B"], dtype=np.int64))
        return B, man, None
    raise GeometryError(f"unknown bundle kind {kind!r} in {path}")


def cmd_verify(args) -> int:
    """The verify report and its verdict: blocking, minimal, not trivial,
    not planar in dimension > 2 and no theorem violated, as far as asked."""
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        raise GeometryError("no checks given")
    known = {"blocking", "minimal", "trivial", "planar", "spectrum",
             "tangency"}
    bad = set(checks) - known
    if bad:
        raise GeometryError(f"unknown checks: {sorted(bad)}")
    timings, ok = {}, True

    # a theorem scan's GeometryError is its violation and fails the verdict
    def timed(name, fn, *fn_args, theorem=False):
        nonlocal ok
        t0 = time.perf_counter()
        try:
            return fn(*fn_args)
        except GeometryError as exc:
            if not theorem:
                raise
            ok = False
            return {"violation": str(exc)}
        finally:
            timings[name] = _ms_since(t0)

    B, manifest, bundle = timed("load", _load_any_bundle, args.bundle)
    asked = {"spectrum", "tangency"} & set(checks)
    if asked and bundle is None:
        raise GeometryError(f"{min(asked)} check needs an example36 bundle")
    report = {"config": {"command": "verify", "bundle": args.bundle,
                         "checks": checks},
              "manifest": manifest, "space": repr(B.space),
              "sizes": {"set": len(B)}, "timings_ms": timings}
    # B's one count, taken before the theorems, which read it too
    if asked or {"blocking", "minimal"} & set(checks):
        coverage = timed("blocking", lambda: verify.blocking_check(B)
                         if bundle is None else bundle.coverage)
    if "spectrum" in checks:
        spectra = report["spectra"] = timed(
            "spectrum.parts", example36.spectrum_scan, bundle, theorem=True)
        spectra["structural"] = timed(
            "spectrum.structural", example36.structural_checks, bundle,
            theorem=True)
        timings["spectrum"] = round(timings["spectrum.parts"]
                                    + timings["spectrum.structural"], 3)
    if "tangency" in checks:
        report["tangency"] = timed("tangency", example36.tangency_scan,
                                   bundle, theorem=True)
    if "blocking" in checks or "minimal" in checks:
        report["blocking"] = {
            "total": int(coverage.space.n_points),
            "uncovered": coverage.uncovered_sample,
            "uncovered_total": coverage.uncovered_total,
            "blocking": coverage.blocking,
        }
        ok &= "blocking" not in checks or coverage.blocking
    if "minimal" in checks:
        mres = timed("minimality", verify.minimality_check, B, coverage)
        report["minimality"] = {
            "essential": [{"point": p, "witness": w}
                          for p, w in mres.essential],
            "inessential": mres.inessential,
            "minimal": mres.minimal,
        }
        ok &= mres.minimal
    if "trivial" in checks:
        report["trivial"] = timed("trivial", verify.triviality_check, B)
        ok &= not report["trivial"]
    if "planar" in checks:
        dim, planar = timed("planar", verify.planarity_check, B)
        report["planar"] = {"span_dim": dim, "planar": planar}
        ok &= not planar or B.space.m <= 2
    report["verified"] = ok = bool(ok)
    _emit(report, args.report)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_excluder(args) -> int:
    result = example36.mps_excluder(args.size, args.p, args.e)
    result["config"] = {"command": "excluder", "size": args.size,
                        "p": args.p, "e": args.e}
    result["verdict"] = "excluded" if result["excluded"] else "admissible"
    _emit(result, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="blockcone",
        description="Blocking-set construction and exhaustive certification "
                    "in PG(r, q^n) via the spread cone model.")
    sub = top.add_subparsers(dest="command", required=True)
    # the model and MPS frame options of `construct mps` and `search fblocking`
    frame_opts = argparse.ArgumentParser(add_help=False)
    for name in ("--q1", "--n", "--r", "--s"):
        frame_opts.add_argument(name, type=int, required=True)
    frame_opts.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ff", help="finite field descriptor")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ff)

    p = sub.add_parser("construct", help="build a blocking set bundle")
    csub = p.add_subparsers(dest="construct_kind", required=True)

    pm = csub.add_parser("mps", parents=[frame_opts],
                         help="cone over a given Bbar")
    pm.add_argument("--bbar", required=True)
    pm.add_argument("--out")
    pm.set_defaults(func=cmd_construct_mps)

    pe = csub.add_parser("example36", help="non-planar PG(3, q^6) example")
    pe.add_argument("--q", type=int, required=True)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_construct_example36)

    p = sub.add_parser("search", help="exhaustive searches")
    ssub = p.add_subparsers(dest="search_kind", required=True)
    pf = ssub.add_parser("fblocking", parents=[frame_opts],
                         help="minimal family-blocking sets")
    pf.add_argument("--max-size", type=int, required=True)
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_search_fblocking)

    p = sub.add_parser("verify", help="certify a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--checks", default="blocking,minimal,trivial,planar")
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("excluder", help="cone-class cardinality exclusion")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_excluder)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FieldError, GeometryError, OSError, ValueError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
