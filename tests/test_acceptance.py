"""Acceptance suite: the ten headline guarantees, one pass/fail line each.

Criteria 1-9 run on the q=2 instance and the tiny search oracle; criterion 10
is the q=3 stretch run (a few minutes of exhaustive counting).
"""

import time

import numpy as np
import pytest

from blockcone import example36 as ex
from blockcone import pg, verify
from blockcone.linalg import matmul
from blockcone.model import make_model
from blockcone.mps import (f_blocking_check, f_search_minimal, frame_make,
                           mps_build, mps_size_predict)
from blockcone.pg import PointSet, span_in

import cone_oracle
from mps_oracle import bbar_without_x

_cache: dict = {}


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _bundle():
    if "bundle" not in _cache:
        t0 = time.perf_counter()
        _cache["bundle"] = ex.example_build(2, 0)
        _cache["build_s"] = time.perf_counter() - t0
    return _cache["bundle"]


def _coverage():
    if "cov" not in _cache:
        t0 = time.perf_counter()
        _cache["cov"] = verify.blocking_check(_bundle().B)
        _cache["cov_s"] = time.perf_counter() - t0
    return _cache["cov"]


def test_criterion_01_q2_cardinalities():
    bundle = _bundle()
    fr = bundle.frame
    aff = int(np.sum(fr.bbar.vecs()[:, -1] != 0))
    ok = (aff == 16 == 2**4
          and len(fr.btilde) == 37 == 3 * 2**4 - 3 * 2**2 + 1
          and len(bundle.B) == 213 == 4 * 2**6 - 3 * 2**4 + 2**2 + 1
          and _cache["build_s"] < 5.0)
    _report(1, ok, f"|Bbar\\Sigma|={aff}, |Btilde|={len(fr.btilde)}, "
                   f"|B|={len(bundle.B)}, build {_cache['build_s']:.2f}s")


def test_criterion_02_q2_blocking():
    cov = _coverage()
    ok = (cov.space.n_points == 266305 and cov.uncovered_total == 0
          and cov.blocking and _cache["cov_s"] < 10.0)
    _report(2, ok, f"{cov.space.n_points} hyperplanes, "
                   f"{cov.uncovered_total} uncovered, {_cache['cov_s']:.2f}s")


def test_criterion_03_q2_minimality():
    t0 = time.perf_counter()
    mres = verify.minimality_check(_bundle().B, _coverage())
    dt = time.perf_counter() - t0
    witnessed = len(mres.essential)
    ok = (mres.minimal and witnessed == 213 and not mres.inessential
          and dt < 30.0)
    # every witness is a genuine tangent hyperplane through its point
    sp = _bundle().B.space
    for rank, wit in mres.essential[:20]:
        assert matmul(pg.unrank(sp, rank)[None], pg.unrank(sp, wit)[:, None],
                      sp.field)[0, 0] == 0
        assert _coverage().counts[wit] == 1
    _report(3, ok, f"{witnessed}/213 essential with witnesses, {dt:.2f}s")


def test_criterion_04_q2_nonplanar_nontrivial():
    B = _bundle().B
    dim, planar = verify.planarity_check(B)
    trivial = verify.triviality_check(B)
    ok = dim == 3 and not planar and not trivial
    _report(4, ok, f"span dim {dim}, contains a line: {trivial}")


def test_criterion_05_spectrum_theorems():
    bundle = _bundle()
    try:
        res = ex.spectrum_scan(bundle)
        rb, rt = res["bbar"], res["btilde"]
        violation = None
    except Exception as exc:  # scan aborts on any out-of-set value
        violation = str(exc)
    family = sum(rb["histogram"].values()) if violation is None else 0
    ok = (violation is None and family == 262144
          and set(map(int, rb["histogram"])) <= {0, 1, 2, 3}
          and set(map(int, rt["histogram"])) <= {0, 1, 2, 3, 4, 37}
          and set(map(int, rt["ht_histogram"])) <= {0, 37})
    _report(5, ok, f"|H|={family}, bbar values "
                   f"{sorted(map(int, rb['histogram'])) if violation is None else violation}, "
                   f"dichotomy {sorted(map(int, rt['ht_histogram'])) if violation is None else '-'}")


def test_criterion_06_lemma3_unique_t_tilde():
    fr = _bundle().frame
    m = fr.model
    n_xprime = len(fr.Xprime.point_ranks())
    # t_tilde_find raises unless the direct scan yields exactly one point and
    # the regulus characterization agrees
    try:
        tt = ex.t_tilde_find(m, fr.Xprime, fr.t, fr.r_pt)
        ok = n_xprime == 21 and np.array_equal(tt, fr.t_tilde)
        detail = f"1 qualifier among {n_xprime} X' points, scans agree"
    except Exception as exc:
        ok, detail = False, str(exc)
    _report(6, ok, detail)


def test_criterion_07_teo6_formula():
    bundle = _bundle()
    fr = bundle.frame
    union = fr.bbar.union(fr.btilde)
    predicted = mps_size_predict(len(union), fr.model.q1, 3, 0)
    checks = [len(bundle.B) == predicted,
              len(union) == 58, predicted == (58 - 5) * 4 + 1 == 213]
    # and on the tiny-instance builds
    frame = frame_make(make_model(2, 2, 2), 0)
    for item in f_search_minimal(frame, 6):
        B = mps_build(frame, item["bbar"])
        checks.append(len(B) == mps_size_predict(len(item["bbar"]), 2, 2, 0))
    ok = all(checks)
    _report(7, ok, f"(58-5)*4+1={predicted}, formula held on "
                   f"{len(checks)} instances")


def test_criterion_08_tiny_teo45_oracle():
    t0 = time.perf_counter()
    frame = frame_make(make_model(2, 2, 2), 0)
    found = f_search_minimal(frame, 6)
    sp = frame.gamma_prime.space

    def f_minimal(bbar):
        if f_blocking_check(bbar, frame)["violations"]:
            return None
        core = bbar_without_x(frame, bbar)
        for rk in core.ranks:
            rest = PointSet(sp, np.setdiff1d(bbar.ranks, [rk]))
            if not f_blocking_check(rest, frame)["violations"]:
                return False
        return True

    biconditional = True
    cases = [i["bbar"] for i in found]
    aff = [pg.rank_of(sp, v) for v in frame.gamma_prime.point_vecs()
           if v[-1] != 0]
    for bbar in list(cases):
        extra = next(r for r in aff if r not in bbar)
        cases.append(PointSet(sp, np.append(bbar.ranks, extra)))
    for bbar in cases:
        fmin = f_minimal(bbar)
        B = mps_build(frame, bbar)
        counts = verify.naive_coverage(B)
        cov = verify.blocking_check(B)
        assert np.array_equal(cov.counts.astype(np.int64), counts)
        b_min = bool(np.all(counts >= 1)) and verify.minimality_check(
            B, cov).minimal
        biconditional &= (b_min == fmin)

    nontrivial = [i for i in found if not i["trivial"]]
    b_sizes = sorted({len(mps_build(frame, i["bbar"])) for i in nontrivial})
    line_ok = True
    pi = frame.model.pi_space
    for item in nontrivial:
        B = mps_build(frame, item["bbar"])
        bset = set(int(x) for x in B.ranks)
        seen = set()
        for a in range(pi.n_points):
            for b in range(a + 1, pi.n_points):
                L = span_in(pi, pg.unrank_batch(pi, np.array([a, b])))
                if L.dim != 1 or L in seen:
                    continue
                seen.add(L)
                hits = sum(1 for r in L.point_ranks() if int(r) in bset)
                line_ok &= hits in (1, 3)
    # expected sizes from the brute-force cone oracle, which shares no code
    # with mps/verify
    omega = frame.omega.point_vecs()[0]
    expected = sorted({len(B) for B in
                       cone_oracle.minimal_nontrivial_cones(frame.model, omega)})
    dt = time.perf_counter() - t0
    ok = biconditional and b_sizes == expected and line_ok and dt < 60.0
    _report(8, ok,
            f"biconditional {biconditional}, minimal non-trivial |B| sizes "
            f"{b_sizes} (expected from cone oracle: {expected}), "
            f"line spectrum 1-or-3 {line_ok}, {dt:.1f}s")


def test_criterion_09_mps_exclusion():
    r1 = ex.mps_excluder(213, 2, 1)
    r2 = ex.mps_excluder(2683, 3, 1)
    ns = sorted(f["n"] for f in r1["factorizations"])
    ok = r1["excluded"] and r2["excluded"] and ns == [2, 3, 6]
    _report(9, ok, f"213: {r1['excluded']}, 2683: {r2['excluded']}, "
                   f"factorizations n={ns}")


def test_criterion_10_q3_stretch(q3_count):
    bundle, dt = q3_count  # the session's build and count of B
    cov = bundle.coverage
    t0 = time.perf_counter()
    mres = verify.minimality_check(bundle.B, cov)
    dt += time.perf_counter() - t0
    mem_mb = cov.counts.nbytes / 2**20
    ok = (len(bundle.B) == 2683 and cov.blocking and mres.minimal
          and cov.space.n_points == 387952660 and dt < 900.0
          and cov.counts.dtype == np.uint8 and mem_mb < 2048)
    _report(10, ok, f"|B|={len(bundle.B)}, {cov.space.n_points} hyperplanes, "
                    f"blocking {cov.blocking}, minimal {mres.minimal}, "
                    f"{dt:.0f}s, counters {mem_mb:.0f} MiB")
