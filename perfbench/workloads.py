"""One workload of the blockcone benchmark, in a process of its own.

run.py starts this file once per workload (and a few more times with
`--probe` to sample set-up time).  The process imports blockcone from the
checkout's `src/`, builds the workload's field towers, then runs whole rounds
("certificates") in a closed loop until `--seconds` have passed, and prints
one JSON line with the round times, operation counts, check problems, peak
RSS and, with `--trace 1`, the per-layer figures.

Program calls are timed; the checks that follow them are not, and tracing is
paused while they run.  A program call that raises or returns a negative
verdict counts as a failed operation.  A check that disagrees with an
independent computation (oracle.py) or with a property the construction must
have is a problem, and any problem makes the run incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402

# blockcone modules, bound by _import_blockcone()
bc = None

# points of B whose dual ranks a q3-build round generates: enough that the
# kernel, which is nearly all of a whole q = 3 certificate, is about 70 %
# of the round, with three or four rounds still fitting in a 40 s run
Q3_SAMPLE = 200
Q2_CHECKS = "blocking,minimal,trivial,planar,spectrum"
TINY = [((2, 2, 2, 0), 9), ((2, 3, 2, 1), 7), ((3, 2, 2, 0), 6)]


class Round:
    """Timing, operation counts and problems of one certificate."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = 0.0  # program time
        self.wall = 0.0  # program and checks
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @contextlib.contextmanager
    def program(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - t0

    @contextlib.contextmanager
    def check(self):
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True

    def expect(self, cond, msg: str) -> None:
        if not cond:
            self.problems.append(msg)

    def crashed(self, what: str, remaining: int) -> None:
        """A program call raised: it and the `remaining - 1` operations of the
        round that depend on it count as failed."""
        sys.stderr.write(f"{what} raised:\n{traceback.format_exc()}")
        self.failed += remaining


class Ctx:
    def __init__(self, seed: int, reduced: bool, workdir: Path):
        self.seed = seed
        self.reduced = reduced
        self.workdir = workdir
        self._fields: dict[str, oracle.Field] = {}
        self._points: dict[tuple[int, int], np.ndarray] = {}

    def field(self, manifest: str) -> oracle.Field:
        if manifest not in self._fields:
            self._fields[manifest] = oracle.Field(manifest)
        return self._fields[manifest]

    def all_points(self, q: int, m: int) -> np.ndarray:
        if (q, m) not in self._points:
            self._points[q, m] = oracle.unrank(
                q, m, np.arange(oracle.n_points(q, m)))
        return self._points[q, m]


# ---------------------------------------------------------------------------
# q3-build: the q = 3 example (frame seed 0, the paper's certificate), its
# planarity and excluder verdicts, and the per-point dual-rank kernel that
# blocking and minimality run 2 x 2683 times; --seed picks the sampled points


def q3_check_bundle(rd: Round, B, dim: int, planar: bool, exc: dict,
                    q: int) -> None:
    rd.expect(len(B) == 4 * q**6 - 3 * q**4 + q**2 + 1,
              f"|B| = {len(B)}, not 4q^6 - 3q^4 + q^2 + 1")
    rd.expect(B.space.n_hyperplanes == (q**24 - 1) // (q**6 - 1),
              "hyperplane count is not (q^24 - 1)/(q^6 - 1)")
    rd.expect(dim == 3 and not planar, f"span dimension {dim}, planar={planar}")
    rd.expect(exc["excluded"] and exc["size"] == len(B),
              f"excluder did not exclude {len(B)}")


def q3_check_duals(rd: Round, F: oracle.Field, Q: int, pt: np.ndarray,
                   ranks: np.ndarray, rng) -> None:
    n_hyp = oracle.n_points(Q, 3)
    s = np.sort(ranks)
    rd.expect(len(s) == Q * Q + Q + 1, f"{len(s)} hyperplanes through a point")
    rd.expect(s[0] >= 0 and s[-1] < n_hyp and np.all(np.diff(s) > 0),
              "dual ranks out of range or repeated")
    listed = oracle.unrank(Q, 3, rng.choice(ranks, 16))
    rd.expect(np.all(F.dot(listed, pt) == 0), "listed hyperplane misses point")
    probe = rng.integers(0, n_hyp, 16)
    incident = F.dot(oracle.unrank(Q, 3, probe), pt) == 0
    pos = np.minimum(np.searchsorted(s, probe), len(s) - 1)
    rd.expect(np.array_equal(incident, s[pos] == probe),
              "dual-rank list disagrees with incidence on random hyperplanes")


def q3_round(ctx: Ctx, rd: Round, i: int) -> None:
    q = 3
    k = 2 if ctx.reduced else Q3_SAMPLE
    rd.attempted += 3 + k
    try:
        with rd.program():
            bundle = bc.example36.example_build(q, 0)
            dim, planar = bc.verify.planarity_check(bundle.B)
            exc = bc.example36.mps_excluder(len(bundle.B), q, 1)
    except Exception:
        return rd.crashed("q=3 build", 3 + k)
    with rd.check():
        B = bundle.B
        q3_check_bundle(rd, B, dim, planar, exc, q)
        F = ctx.field(bundle.manifest()["big_modulus"])
        Q = F.q
        rng = np.random.default_rng([ctx.seed, i])
        pts = oracle.unrank(Q, 3, rng.choice(B.ranks, k, replace=False))
    for pt in pts:
        try:
            with rd.program():
                ranks = bc.pg.incident_dual_ranks(B.space, pt)
        except Exception:
            rd.crashed("incident_dual_ranks", 1)
            continue
        with rd.check():
            q3_check_duals(rd, F, Q, pt, ranks, rng)


# ---------------------------------------------------------------------------
# q2-theorems: construct + verify through the CLI, a byte-identical rebuild,
# and the tangency scan, for one X' choice (frame seed) per round


def cli_call(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return bc.cli.main(argv)


def cli_op(rd: Round, argv: list[str]) -> bool:
    """One CLI call as one operation, failed unless it exits with 0."""
    rd.attempted += 1
    try:
        with rd.program():
            rc = cli_call(argv)
    except Exception:
        rc = None
        sys.stderr.write(traceback.format_exc())
    rd.failed += rc != 0
    return rc == 0


def q2_verify_op(ctx: Ctx, rd: Round, bundle_path: Path, q: int) -> None:
    """`blockcone verify` on a bundle, with every verdict rechecked."""
    rep_path = ctx.workdir / "report.json"
    rep_path.unlink(missing_ok=True)
    rd.attempted += 1
    try:
        with rd.program():
            rc = cli_call(["verify", "--bundle", str(bundle_path),
                           "--checks", Q2_CHECKS, "--report", str(rep_path)])
    except Exception:
        return rd.crashed("blockcone verify", 1)
    with rd.check():
        data = json.loads(bundle_path.read_text())
        F = ctx.field(data["manifest"]["big_modulus"])
        Q = F.q
        pts = oracle.unrank(Q, 3, data["B"])
        rd.expect(len(pts) == 4 * q**6 - 3 * q**4 + q**2 + 1,
                  f"|B| = {len(pts)}, not 4q^6 - 3q^4 + q^2 + 1")
        if not rep_path.exists():
            rd.failed += 1
            return
        rep = json.loads(rep_path.read_text())
        verified = rc == 0 and rep["verified"]
        rd.failed += not verified
        blk = rep["blocking"]
        rd.expect(blk["total"] == (q**24 - 1) // (q**6 - 1),
                  "hyperplane count is not (q^24 - 1)/(q^6 - 1)")
        # a reported uncovered hyperplane must really miss B
        unc = oracle.unrank(Q, 3, blk["uncovered"])
        rd.expect(not oracle.incidence(F, unc, pts).any(),
                  "a reported uncovered hyperplane meets B")
        if not verified:
            return
        ess = rep["minimality"]["essential"]
        rd.expect(len(ess) == len(pts), "not every point is essential")
        inc = oracle.incidence(F, oracle.unrank(Q, 3, [e["witness"] for e in ess]),
                               pts)
        col = np.searchsorted(data["B"], [e["point"] for e in ess])
        rd.expect(np.all(inc.sum(axis=1) == 1)
                  and np.all(inc[np.arange(len(ess)), col]),
                  "a tangent witness does not meet B in exactly its point")
        rd.expect(rep["planar"]["span_dim"] == 3, "B does not span PG(3, q^6)")
        bt = 3 * q**4 - 3 * q**2 + 1
        rd.expect(len(data["btilde"]) == bt, "|Btilde| != 3q^4 - 3q^2 + 1")
        for target, allowed in (("bbar", {0, 1, q, q + 1}),
                                ("btilde", {0, 1, 2, 3, q * q, bt})):
            hist = {int(k): v for k, v in rep["spectra"][target]["histogram"].items()}
            rd.expect(sum(hist.values()) == q**18,
                      f"{target} histogram does not sum to q^18")
            rd.expect(set(hist) <= allowed, f"{target} spectrum {sorted(hist)}")
        ht = {int(k) for k in rep["spectra"]["btilde"]["ht_histogram"]}
        rd.expect(ht <= {0, bt}, f"X'-family dichotomy broken: {sorted(ht)}")


def q2_check_tangency(ctx: Ctx, rd: Round, bundle, tan: dict, q: int) -> None:
    fr = bundle.frame
    model = fr.model
    man = bundle.manifest()
    F = ctx.field(man["big_modulus"])
    Q, q1 = F.q, model.q1
    rd.expect(tan["count"] == 4 * q**4 - 3 * q**2 + 1,
              f"{tan['count']} tangency witnesses, not 4q^4 - 3q^2 + 1")
    ws = tan["witnesses"]
    sp_m = model.sigma_prime.m
    core = oracle.unrank(q1, sp_m, [w["point"] for w in ws])
    hyps = oracle.unrank(Q, 3, [w["witness"] for w in ws])
    xprime = np.append(oracle.unrank(Q, 2, [man["xprime_index"]])[0], 0)
    bbar = set(int(x) for x in fr.bbar.ranks)
    for j, w in enumerate(ws):
        s7 = bc.pg.span([model.hyperplane_blowup(hyps[j]), model.vertex_p])
        hits = [c for c in range(len(core)) if s7.contains(core[c])]
        rd.expect(hits == [j], f"witness {w['witness']} meets the union in {hits}")
        through = bool(F.dot(hyps[j], xprime) == 0)
        rd.expect(w["in_xprime_family"] == through == (w["point"] in bbar)
                  and w["part"] == ("bbar" if through else "btilde"),
                  f"witness {w['witness']} in the wrong subfamily")


def q2_round(ctx: Ctx, rd: Round, i: int) -> None:
    q = 2
    seed = str((ctx.seed + i) % 8)
    b1, b2 = ctx.workdir / "b1.json", ctx.workdir / "b2.json"
    construct = ["construct", "example36", "--q", str(q), "--seed", seed]
    if not cli_op(rd, construct + ["--out", str(b1)]):
        rd.attempted += 3  # verify, rebuild and tangency depend on it
        rd.failed += 3
        return
    q2_verify_op(ctx, rd, b1, q)
    if cli_op(rd, construct + ["--out", str(b2)]):
        with rd.check():
            rd.expect(b1.read_bytes() == b2.read_bytes(),
                      "construct bundles differ between runs")
    rd.attempted += 1
    try:
        with rd.program():
            bundle = bc.example36.load_bundle(b1)
            tan = bc.example36.tangency_scan(bundle)
    except Exception:
        return rd.crashed("tangency scan", 1)
    with rd.check():
        q2_check_tangency(ctx, rd, bundle, tan, q)


# ---------------------------------------------------------------------------
# tiny-search: exhaustive minimal family-blocking sets, each lifted by the
# cone construction and certified; the only workload with s > 0


def tiny_set_op(ctx: Ctx, rd: Round, frame, bbar, drop_point=False):
    """mps_build + blocking + minimality + naive oracle on one found set;
    returns |B|, or None when a call raised."""
    model = frame.model
    q1, n, s = model.q1, model.n, frame.s
    rd.attempted += 1
    try:
        with rd.program():
            B = bc.mps.mps_build(frame, bbar)
        if drop_point:
            B = bc.pg.PointSet(B.space, B.ranks[:-1])
        with rd.program():
            cov = bc.verify.blocking_check(B)
            mres = bc.verify.minimality_check(B, cov)
            naive = bc.verify.naive_coverage(B)
    except Exception:
        rd.crashed("tiny-instance certificate", 1)
        return None
    if not (cov.blocking and mres.minimal):
        rd.failed += 1
    with rd.check():
        theta = (q1 ** (n - s - 1) - 1) // (q1 - 1)
        rd.expect(len(B) == (len(bbar) - theta) * q1 ** (s + 1) + 1,
                  f"|B| = {len(B)} breaks (|Bbar| - theta) q1^(s+1) + 1")
        F = ctx.field(model.manifest()["big_modulus"])
        hyps = ctx.all_points(F.q, model.r)
        inc = oracle.incidence(F, hyps, oracle.unrank(F.q, model.r, B.ranks))
        counts = inc.sum(axis=1)
        blocking = bool(np.all(counts > 0))
        essential = bool(np.all((inc & (counts == 1)[:, None]).any(axis=0)))
        rd.expect(blocking and essential,
                  f"B (|B| = {len(B)}) is not a minimal blocking set")
        rd.expect(cov.blocking == blocking and mres.minimal == essential,
                  "blocking/minimality verdict disagrees with the incidence count")
        rd.expect(np.array_equal(cov.counts, np.minimum(counts, 255)),
                  "blocking_check counts differ from the incidence count")
        rd.expect(np.array_equal(naive, counts),
                  "naive_coverage differs from the incidence count")
    return len(B)


def tiny_round(ctx: Ctx, rd: Round, i: int) -> None:
    for (q1, n, r, s), max_size in TINY[:1] if ctx.reduced else TINY:
        rd.attempted += 1
        try:
            with rd.program():
                model = bc.make_model(q1, n, r)
                frame = bc.mps.frame_make(model, s, seed=(ctx.seed + i) % 4)
                found = bc.mps.f_search_minimal(frame, max_size)
        except Exception:
            rd.crashed(f"search on {(q1, n, r, s)}", 1)
            continue
        nontrivial = set()
        for item in found:
            size = tiny_set_op(ctx, rd, frame, item["bbar"])
            if size is not None and not item["trivial"]:
                nontrivial.add(size)
        if (q1, n, r, s) == (2, 2, 2, 0):
            with rd.check():
                rd.expect(nontrivial == {9},
                          f"non-trivial sizes {sorted(nontrivial)}, not {{9}}")


# ---------------------------------------------------------------------------


WORKLOADS = {
    # name: (field towers (p, t, n) built during set-up, round function)
    "q3-build": ([(3, 2, 3)], q3_round),
    "q2-theorems": ([(2, 2, 3)], q2_round),
    "tiny-search": ([(2, 1, 2), (2, 1, 3), (3, 1, 2)], tiny_round),
}

# per-layer metric: (span name, field of spans.summarize)
LAYER_METRICS = {
    "pg.incident_dual_ranks_s": ("pg.incident_dual_ranks", "total_s"),
    "pg.dual_ranks_generated": ("pg.incident_dual_ranks", "work"),
    "pg.rank_unrank_rows": ("pg.rank_unrank", "work"),
    "pg.rank_unrank_s": ("pg.rank_unrank", "total_s"),
    "pg.subspace_ops": ("pg.subspace", "calls"),
    "pg.subspace_s": ("pg.subspace", "total_s"),
    "linalg.rref_calls": ("linalg.rref", "calls"),
    "linalg.rref_s": ("linalg.rref", "total_s"),
    "model.hyperplane_blowup_calls": ("model.hyperplane_blowup", "calls"),
    "mps.frame_make_s": ("mps.frame_make", "total_s"),
    "mps.f_search_minimal_s": ("mps.f_search_minimal", "total_s"),
    "mps.cone_calls": ("mps.cone", "calls"),
    "mps.cone_s": ("mps.cone", "total_s"),
    "mps.mps_build_s": ("mps.mps_build", "total_s"),
    "example36.example_build_s": ("example36.example_build", "total_s"),
    "example36.spectrum_scan_s": ("example36.spectrum_scan", "total_s"),
    "example36.tangency_scan_s": ("example36.tangency_scan", "total_s"),
    "example36.membership_calls": ("example36.membership", "calls"),
    "example36.family_members_scanned": ("example36.membership", "work"),
    "verify.blocking_check_s": ("verify.blocking_check", "total_s"),
    "verify.minimality_check_s": ("verify.minimality_check", "total_s"),
    "verify.triviality_check_s": ("verify.triviality_check", "total_s"),
    "verify.planarity_check_s": ("verify.planarity_check", "total_s"),
    "verify.naive_coverage_s": ("verify.naive_coverage", "total_s"),
    "cli.construct_s": ("cli.construct", "total_s"),
    "cli.verify_s": ("cli.verify", "total_s"),
    "cli.report_bytes": ("cli.verify", "work"),
}


def layer_metrics(tracer: spans.Tracer, rounds: list[Round]) -> tuple[dict, dict]:
    """(per-layer metrics per certificate, full per-span-name summary)."""
    per_round = spans.summarize(tracer.spans, rounds=range(len(rounds)))
    out = {}
    for metric, (name, field) in LAYER_METRICS.items():
        out[metric] = per_round.get(name, {}).get(field, 0) / len(rounds)
    setup = spans.summarize(tracer.spans, rounds=range(-1, 0))
    out["gf.tower_s"] = setup.get("gf.tower", {}).get("total_s", 0.0)
    generated, base, counter = spans.verify_ranks(tracer.spans)
    out["verify.rank_regeneration_ratio"] = generated / base if base else 0.0
    out["verify.counter_bytes"] = counter
    out["traced.certificate_s"] = float(np.median([r.seconds for r in rounds]))
    return out, spans.summarize(tracer.spans)


def _import_blockcone():
    global bc
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import blockcone
    from blockcone import cli, example36, gf, mps, pg, verify
    if not Path(blockcone.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"blockcone imported from {blockcone.__file__}, "
                         f"not from {src}")
    bc = argparse.Namespace(cli=cli, example36=example36, gf=gf, mps=mps,
                            pg=pg, verify=verify,
                            make_model=blockcone.make_model)


def self_test(name: str, tracer, workdir: Path) -> int:
    """One reduced round must pass every check with no failed operation, and a
    B with one point dropped must fail its operation and its checks."""
    ctx = Ctx(seed=0, reduced=True, workdir=workdir)
    rd = Round(tracer)
    WORKLOADS[name][1](ctx, rd, 0)
    ok = rd.attempted > 0 and rd.failed == 0 and not rd.problems
    print(f"[{name}] reduced round: attempted={rd.attempted} "
          f"failed={rd.failed} problems={rd.problems[:3]} "
          f"{'PASS' if ok else 'FAIL'}")
    bad = Round(tracer)
    if name == "tiny-search":
        frame = bc.mps.frame_make(bc.make_model(2, 2, 2), 0)
        item = next(x for x in bc.mps.f_search_minimal(frame, 9)
                    if not x["trivial"])
        tiny_set_op(ctx, bad, frame, item["bbar"], drop_point=True)
    elif name == "q2-theorems":
        data = json.loads((workdir / "b1.json").read_text())
        data["B"] = data["B"][:-1]
        path = workdir / "tampered.json"
        path.write_text(json.dumps(data))
        q2_verify_op(ctx, bad, path, 2)
    else:
        # q3-build runs no verdict on B, so only its checks can catch this
        bundle = bc.example36.example_build(3, 0)
        B = bc.pg.PointSet(bundle.B.space, bundle.B.ranks[:-1])
        dim, planar = bc.verify.planarity_check(B)
        q3_check_bundle(bad, B, dim, planar,
                        bc.example36.mps_excluder(len(B), 3, 1), 3)
    expect_failed = 0 if name == "q3-build" else 1
    caught = bad.failed == expect_failed and bool(bad.problems)
    print(f"[{name}] B with one point dropped: failed={bad.failed} "
          f"problems={bad.problems[:3]} {'PASS' if caught else 'FAIL'}")
    return 0 if ok and caught else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="gzip TSV file for the spans")
    ap.add_argument("--probe", action="store_true",
                    help="stop after set-up and report its time")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    _import_blockcone()
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    towers, round_fn = WORKLOADS[args.workload]
    for p, t, n in towers:
        bc.gf.cached_tower(p, t, n)
    setup_s = time.monotonic() - args.spawned
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workdir = HERE / "out" / f"work-{args.workload}-{id(args)}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.self_test:
            return self_test(args.workload, tracer, workdir)
        ctx = Ctx(args.seed, reduced=False, workdir=workdir)
        rounds: list[Round] = []
        start = time.perf_counter()
        # start a round only if a typical one still fits in the run
        while not rounds or (time.perf_counter() - start + np.median(
                [r.wall for r in rounds]) <= args.seconds):
            if tracer is not None:
                tracer.round = len(rounds)
            rd = Round(tracer)
            t0 = time.perf_counter()
            round_fn(ctx, rd, len(rounds))
            rd.wall = time.perf_counter() - t0
            rounds.append(rd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    result = {
        "setup_s": setup_s,
        "round_s": [r.seconds for r in rounds],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems[:20],
        "n_problems": len(problems),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.enabled = False
        result["layers"], result["span_summary"] = layer_metrics(tracer, rounds)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
