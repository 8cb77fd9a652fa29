"""In-memory span tracing around blockcone's public functions.

The package is not edited: `Tracer.install` replaces each traced function or
method, in every blockcone module namespace that holds it, with a wrapper that
records a span (name, start, end, parent, round, work).  Spans stay in memory
and are written out when the benchmark ends; per-layer figures, self time
included, are derived from them by `summarize`.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from collections import defaultdict


def _rows(args, out):
    return len(out)


def _one(args, out):
    return 1


def _rank_batch_rows(args, out):
    return len(args[1])


def _blocking_work(args, out):
    ps = args[0]
    return (len(ps) * ps.space.hyperplanes_per_point(), out.counts.nbytes)


def _report_bytes(args, out):
    path = args[0].report
    return os.path.getsize(path) if path and os.path.exists(path) else 0


# (module, attribute or Class.method, span name, work count or None)
TARGETS = [
    ("gf", "FieldSpec.__init__", "gf.tower", None),
    ("gf", "FieldTower.__init__", "gf.tower", None),
    ("linalg", "rref", "linalg.rref", None),
    ("pg", "rank_batch", "pg.rank_unrank", _rank_batch_rows),
    ("pg", "unrank_batch", "pg.rank_unrank", _rows),
    ("pg", "rank_of", "pg.rank_unrank", _one),
    ("pg", "unrank", "pg.rank_unrank", _one),
    ("pg", "incident_dual_ranks", "pg.incident_dual_ranks", _rows),
    ("pg", "Subspace.__init__", "pg.subspace", None),
    ("pg", "Subspace.contains", "pg.subspace", None),
    ("pg", "Subspace.contains_sub", "pg.subspace", None),
    ("pg", "Subspace.coords_of", "pg.subspace", None),
    ("pg", "Subspace.point_vecs", "pg.subspace", None),
    ("pg", "Subspace.point_ranks", "pg.subspace", None),
    ("pg", "Subspace.dual_forms", "pg.subspace", None),
    ("pg", "span", "pg.subspace", None),
    ("pg", "span_in", "pg.subspace", None),
    ("pg", "meet", "pg.subspace", None),
    ("model", "BCModel.hyperplane_blowup", "model.hyperplane_blowup", None),
    ("mps", "frame_make", "mps.frame_make", None),
    ("mps", "f_search_minimal", "mps.f_search_minimal", None),
    ("mps", "cone", "mps.cone", None),
    ("mps", "mps_build", "mps.mps_build", None),
    ("example36", "example_build", "example36.example_build", None),
    ("example36", "spectrum_scan", "example36.spectrum_scan", None),
    ("example36", "tangency_scan", "example36.tangency_scan", None),
    ("example36", "FamilyScanner.membership", "example36.membership", _rows),
    ("verify", "blocking_check", "verify.blocking_check", _blocking_work),
    ("verify", "minimality_check", "verify.minimality_check", None),
    ("verify", "triviality_check", "verify.triviality_check", None),
    ("verify", "planarity_check", "verify.planarity_check", None),
    ("verify", "naive_coverage", "verify.naive_coverage", None),
    ("cli", "cmd_construct_example36", "cli.construct", None),
    ("cli", "cmd_verify", "cli.verify", _report_bytes),
]

# span record fields
NAME, START, END, PARENT, ROUND, WORK, OUTER = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.round = -1  # -1 is set-up; rounds count from 0
        self.enabled = True
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    def _wrap(self, fn, name, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.round, None,
                   tracer._active[name] == 0]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            tracer._active[name] += 1
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
            if work is not None:
                rec[WORK] = work(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in its defining module and in each blockcone
        module that imported it by name."""
        mods = [m for k, m in sys.modules.items()
                if k == "blockcone" or k.startswith("blockcone.")]
        for modname, attr, name, work in TARGETS:
            mod = sys.modules[f"blockcone.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), name, work))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, work)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart\tend\tparent\tround\twork\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t"
                         f"{s[PARENT]}\t{s[ROUND]}\t{s[WORK]}\n")


def summarize(spans: list[list], rounds: range | None = None) -> dict:
    """Per span name, over the spans of the given rounds (default all):
    calls and total time of the outermost spans of that name, self time
    (duration minus direct children), and summed work."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if rounds is not None and s[ROUND] not in rounds:
            continue
        row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0, "work": 0})
        dur = s[END] - s[START]
        row["self_s"] += dur - child[i]
        if s[OUTER]:
            row["calls"] += 1
            row["total_s"] += dur
            w = s[WORK]
            if isinstance(w, tuple):
                w = w[0]
            row["work"] += w or 0
    return out


def verify_ranks(spans: list[list]) -> tuple[int, int, int]:
    """(dual ranks generated inside blocking or minimality checks, the base
    |S| x hyperplanes per point summed over blocking checks, the largest
    coverage counter in bytes)."""
    inside = {"verify.blocking_check", "verify.minimality_check"}
    generated = base = counter = 0
    for s in spans:
        if s[NAME] == "verify.blocking_check" and s[WORK] is not None:
            base += s[WORK][0]
            counter = max(counter, s[WORK][1])
        elif s[NAME] == "pg.incident_dual_ranks" and s[WORK] is not None:
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in inside:
                p = spans[p][PARENT]
            if p >= 0:
                generated += s[WORK]
    return generated, base, counter
