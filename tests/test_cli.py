"""Front-end: exit codes, report schemas, end-to-end flows."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from blockcone import cli, example36, pg, verify
from blockcone.gf import cached_field
from blockcone.pg import PointSet, ProjSpace, save_point_set


def run(argv):
    return cli.main(argv)


def test_ff_report(tmp_path, capsys):
    out = tmp_path / "ff.json"
    assert run(["ff", "--p", "2", "--k", "6", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["q"] == 64
    assert data["manifest"] == "2 6 1 1 0 0 0 0 1"
    assert data["config"]["command"] == "ff"


def test_ff_usage_error(capsys):
    assert run(["ff", "--p", "4", "--k", "2"]) == 2
    # GF(2^14) has more elements than the dense tables allow
    assert run(["ff", "--p", "2", "--k", "14"]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "b.json"
    assert run(["construct", "example36", "--q", "2", "--seed", "0",
                "--out", str(path)]) == 0
    return path


def test_construct_example36_bundle(bundle_path):
    data = json.loads(bundle_path.read_text())
    assert data["kind"] == "example36"
    assert data["manifest"]["xprime_index"] == 1  # 1 + seed mod 8
    assert len(data["B"]) == 213
    assert len(data["bbar"]) == 21 and len(data["btilde"]) == 37
    assert data["manifest"]["sizes"]["B"] == 213


def test_verify_bundle_ok(bundle_path, tmp_path):
    report = tmp_path / "report.json"
    rc = run(["verify", "--bundle", str(bundle_path),
              "--checks", "blocking,minimal,trivial,planar",
              "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["verified"] is True
    assert data["blocking"]["uncovered"] == []
    assert data["blocking"]["total"] == 266305
    assert data["minimality"]["minimal"] is True
    assert data["trivial"] is False
    assert data["planar"] == {"planar": False, "span_dim": 3}
    assert data["config"]["checks"] == ["blocking", "minimal", "trivial",
                                        "planar"]


def test_verify_spectrum_check(bundle_path, tmp_path):
    report = tmp_path / "rs.json"
    rc = run(["verify", "--bundle", str(bundle_path), "--checks", "spectrum",
              "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert set(data["spectra"]) == {"bbar", "btilde", "structural"}
    assert "structural" not in data["spectra"]["bbar"]
    assert "structural" not in data["spectra"]["btilde"]
    assert {"spectrum", "spectrum.structural"} <= set(data["timings_ms"])


def test_verify_spectrum_runs_structural_checks_once(bundle_path, tmp_path,
                                                     monkeypatch):
    # the sampled S7 facts do not depend on the part, so one verify samples
    # its 100 members once: one blow-up per member
    calls = []
    real = example36.BCModel.hyperplane_blowup

    def counted(self, dual):
        calls.append(1)
        return real(self, dual)

    monkeypatch.setattr(example36.BCModel, "hyperplane_blowup", counted)
    assert run(["verify", "--bundle", str(bundle_path), "--checks", "spectrum",
                "--report", str(tmp_path / "once.json")]) == 0
    assert len(calls) == 100


def test_verify_computes_family_ranks_once(bundle_path, tmp_path,
                                           monkeypatch):
    # the X-ranks and the X'-subfamily depend only on the frame: the two
    # spectra, the structural checks and tangency share one computation, and
    # X's ranks come from the MPS frame alone; so one verify lists the duals
    # through a point twice, for X and for X'
    calls = []
    real = pg.incident_dual_ranks

    def counted(space, vec):
        calls.append(1)
        return real(space, vec)

    monkeypatch.setattr(pg, "incident_dual_ranks", counted)
    assert run(["verify", "--bundle", str(bundle_path), "--checks",
                "spectrum,tangency", "--report", str(tmp_path / "f.json")]) == 0
    assert len(calls) == 2


def test_verify_counts_b_once(bundle_path, tmp_path, monkeypatch):
    # B's count serves blocking, minimality, the spectra and tangency; the
    # only other tile set-up is the spectra's pass over image(Bbar).  Each
    # set is walked once: the least tangents are found while counting
    built, walked = [], []
    real = verify._Tiles._batches

    class Counted(verify._Tiles):
        def __init__(self, space, vecs):
            built.append(len(vecs))
            super().__init__(space, vecs)

        def _batches(self):
            walked.append(len(self.g))
            return real(self)

    monkeypatch.setattr(verify, "_Tiles", Counted)
    assert run(["verify", "--bundle", str(bundle_path), "--checks",
                "blocking,minimal,spectrum,tangency",
                "--report", str(tmp_path / "once.json")]) == 0
    assert built == [213, 64]  # |B|, then q1 x |Bbar \ Sigma|
    assert walked == [213, 64]


def test_heartbeat_names_the_counted_set(bundle_path, tmp_path, monkeypatch,
                                         capsys):
    # with a heartbeat per batch, B's pass and the spectra's pass over
    # image(Bbar) are told apart by their number of points
    monkeypatch.setattr(verify, "_HEARTBEAT_S", 0)
    assert run(["verify", "--bundle", str(bundle_path), "--checks",
                "blocking,spectrum",
                "--report", str(tmp_path / "hb.json")]) == 0
    err = capsys.readouterr().err
    for n in (213, 64):
        assert f"counting {n} points over PG(3,64): " in err


@pytest.mark.parametrize("checks", [
    "blocking,minimal,trivial,planar,spectrum,tangency", "spectrum,tangency"])
@pytest.mark.parametrize("other", ["seed 1", "one point dropped"])
def test_verify_theorems_read_the_stored_b(bundle_path, tmp_path, checks,
                                          other):
    # the theorems hold for the frame's cone, so they must refuse a bundle
    # whose B is another set: seed 1's B, a minimal blocking set of the same
    # size in the same space, or the cone less one point
    data = json.loads(bundle_path.read_text())
    if other == "seed 1":
        data["B"] = example36.bundle_to_dict(
            example36.example_build(2, 1))["B"]
        assert data["B"] != json.loads(bundle_path.read_text())["B"]
    else:
        data["B"] = data["B"][1:]
    bad = tmp_path / "other_b.json"
    bad.write_text(json.dumps(data))
    report = tmp_path / "rep.json"
    assert run(["verify", "--bundle", str(bad), "--checks", checks,
                "--report", str(report)]) == 1
    rep = json.loads(report.read_text())
    assert rep["verified"] is False
    for key in ("spectra", "tangency"):
        assert "K(p, Bbar u Btilde)" in rep[key]["violation"]


def test_verify_structural_violation_fails(bundle_path, tmp_path,
                                           monkeypatch):
    def broken(bundle):
        raise example36.GeometryError("S7 cap <Btilde> is not a line off Sigma")

    monkeypatch.setattr(example36, "structural_checks", broken)
    report = tmp_path / "st.json"
    assert run(["verify", "--bundle", str(bundle_path), "--checks", "spectrum",
                "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["verified"] is False
    assert "not a line" in data["spectra"]["structural"]["violation"]
    assert set(map(int, data["spectra"]["bbar"]["histogram"])) <= {0, 1, 2, 3}
    assert set(map(int, data["spectra"]["btilde"]["ht_histogram"])) <= {0, 37}


def test_verify_tangency_check(bundle_path, tmp_path, monkeypatch):
    report = tmp_path / "rt.json"
    rc = run(["verify", "--bundle", str(bundle_path), "--checks", "tangency",
              "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["verified"] is True
    assert data["tangency"]["count"] == 53
    assert len(data["tangency"]["witnesses"]) == 53
    assert "tangency" in data["timings_ms"]

    def no_witness(bundle):
        raise example36.GeometryError("points without tangent witness: [0]")

    monkeypatch.setattr(example36, "tangency_scan", no_witness)
    assert run(["verify", "--bundle", str(bundle_path), "--checks", "tangency",
                "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["verified"] is False
    assert "without tangent witness" in data["tangency"]["violation"]


@pytest.mark.parametrize("edit", [
    {"seed": None}, {"q": None}, {"B": None}, {"bbar": None},
    {"q": "2"}, {"seed": 0.5}, {"q": True}, {"B": "all"}, {"btilde": [1, "x"]},
])
def test_malformed_example_bundle_exits_2(bundle_path, tmp_path, capsys,
                                          edit):
    data = json.loads(bundle_path.read_text())
    for key, value in edit.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["verify", "--bundle", str(bad)]) == 2
    key = next(iter(edit))
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and repr(key) in err[0]
    with pytest.raises(example36.GeometryError):
        example36.load_bundle(bad)


@pytest.mark.parametrize("edit", [
    {"manifest": None}, {"B": None}, {"manifest": {"q1": 2}},
    {"B": [0, 1.5]},
    {"manifest": {"q1": 1, "n": 2, "r": 2}},
])
def test_malformed_mps_bundle_exits_2(tmp_path, capsys, edit):
    data = {"kind": "mps", "manifest": {"q1": 2, "n": 2, "r": 2},
            "B": [0, 1]}
    for key, value in edit.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["verify", "--bundle", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_non_object_bundle_exits_2(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert run(["verify", "--bundle", str(bad)]) == 2


def test_verify_tampered_bundle_fails(bundle_path, tmp_path):
    bad = tmp_path / "bad.json"
    data = json.loads(bundle_path.read_text())
    data["B"] = data["B"][:-1]
    bad.write_text(json.dumps(data))
    report = tmp_path / "rb.json"
    rc = run(["verify", "--bundle", str(bad), "--checks", "blocking,minimal",
              "--report", str(report)])
    assert rc == 1
    rep = json.loads(report.read_text())
    assert rep["verified"] is False
    assert rep["blocking"]["uncovered_total"] > 0


def test_verify_unknown_check_is_usage_error(bundle_path):
    assert run(["verify", "--bundle", str(bundle_path),
                "--checks", "blocking,nonsense"]) == 2


@pytest.mark.parametrize("checks", [",", ""])
def test_verify_empty_check_list_is_usage_error(bundle_path, tmp_path,
                                                checks):
    report = tmp_path / "none.json"
    assert run(["verify", "--bundle", str(bundle_path), "--checks", checks,
                "--report", str(report)]) == 2
    assert not report.exists()


def test_verify_missing_bundle_is_usage_error(tmp_path):
    assert run(["verify", "--bundle", str(tmp_path / "nope.json")]) == 2


def test_spectrum_command(bundle_path, tmp_path):
    # `verify --checks spectrum` is the one spectrum entry point, with 100
    # sampled structural checks once for both parts
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--bundle", str(bundle_path), "--target", "btilde"])
    assert exc.value.code == 2
    out = tmp_path / "spec.json"
    rc = run(["verify", "--bundle", str(bundle_path), "--checks", "spectrum",
              "--report", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())["spectra"]
    assert set(map(int, data["btilde"]["ht_histogram"])) <= {0, 37}
    assert data["structural"]["sampled"] == 100


def test_tangency_wrong_side_fails(bundle_path, tmp_path, monkeypatch):
    # the X'-subfamily of another spread element in place of X''s: the
    # witnesses of Bbar's points then lie outside it, which is an error
    def wrong(frame):
        model = frame.model
        other = pg.incident_dual_ranks(
            model.pi_space, model.spread_to_pg_vec(frame.xprime_index + 1))
        return np.setdiff1d(other, frame.mps.x_ranks)

    monkeypatch.setattr(example36.Example36Frame, "xprime_members",
                        property(wrong))
    bundle = example36.load_bundle(bundle_path)
    with pytest.raises(example36.GeometryError, match="X'-subfamily"):
        example36.tangency_scan(bundle)
    report = tmp_path / "side.json"
    assert run(["verify", "--bundle", str(bundle_path), "--checks", "tangency",
                "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert data["verified"] is False
    assert "X'-subfamily" in data["tangency"]["violation"]


def test_infeasible_family_scan_exits_2(monkeypatch, capsys, tmp_path):
    # a q = 4 example lives in PG(3, 4096): the theorems read B's count,
    # which asks for 6.9e10 hyperplane counters, so `verify --checks
    # spectrum` stops before allocating them, with a usage error, not a
    # spectrum violation
    B = PointSet(ProjSpace(3, cached_field(2, 12)), np.array([0]))
    stub = example36.Bundle(frame=SimpleNamespace(q=4, model=None), B=B)
    monkeypatch.setattr(cli, "_load_any_bundle", lambda path: (B, {}, stub))

    def refuse(space, vecs):
        raise AssertionError("counting started")

    monkeypatch.setattr(verify, "_Tiles", refuse)
    report = tmp_path / "rep.json"
    assert run(["verify", "--bundle", "q4.json", "--checks", "spectrum",
                "--report", str(report)]) == 2
    assert not report.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "GiB" in err[0] and "budget" in err[0]


def test_infeasible_counter_exits_2(tmp_path, monkeypatch, capsys):
    # a set in PG(3, 4096), as a q = 4 example would give, asks for 6.9e10
    # hyperplane counters: verify stops before allocating them
    field = cached_field(2, 12)
    ps = PointSet(ProjSpace(3, field), np.array([0]))
    monkeypatch.setattr(cli, "_load_any_bundle", lambda path: (ps, {}, None))

    def refuse(space, vecs):
        raise AssertionError("counting started")

    monkeypatch.setattr(verify, "_Tiles", refuse)
    report = tmp_path / "rep.json"
    assert run(["verify", "--bundle", "q4.json", "--checks", "blocking",
                "--report", str(report)]) == 2
    assert not report.exists()
    err = capsys.readouterr().err
    assert "GiB" in err and "budget" in err
    assert "_tables" not in vars(field)


def test_excluder_command(tmp_path, capsys):
    out = tmp_path / "ex.json"
    assert run(["excluder", "--size", "213", "--p", "2", "--e", "1",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "excluded"
    assert run(["excluder", "--size", str(2**10 + 1), "--p", "2", "--e", "1",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "admissible"
    for e in ("0", "-1"):
        assert run(["excluder", "--size", "213", "--p", "2", "--e", e]) == 2


@pytest.fixture(scope="module")
def mps_flow(tmp_path_factory):
    """The reports of `search fblocking` on (2, 2, 2, 0) up to size 6 and of
    `construct mps` on its first non-trivial set, with the bundle's path."""
    tmp = tmp_path_factory.mktemp("mps")
    search_out = tmp / "search.json"
    assert run(["search", "fblocking", "--q1", "2", "--n", "2", "--r", "2",
                "--s", "0", "--max-size", "6", "--out", str(search_out)]) == 0
    search = json.loads(search_out.read_text())
    nontrivial = [f for f in search["found"] if not f["trivial"]]
    bbar_file = tmp / "bbar.txt"
    sp = ProjSpace(4, cached_field(2, 1))
    save_point_set(PointSet(sp, np.array(nontrivial[0]["bbar"])), bbar_file)
    mps_out = tmp / "mps.json"
    assert run(["construct", "mps", "--q1", "2", "--n", "2", "--r", "2",
                "--s", "0", "--bbar", str(bbar_file),
                "--out", str(mps_out)]) == 0
    return search, json.loads(mps_out.read_text()), mps_out


def test_search_and_construct_mps_flow(mps_flow):
    search, data, mps_out = mps_flow
    found = search["found"]
    assert sorted({f["size"] for f in found}) == [3, 5]
    nontrivial = [f for f in found if not f["trivial"]]
    assert {f["B_size"] for f in nontrivial} == {9}
    assert data["size"] == data["predicted"] == 9
    # the cone construction never reads X', so its manifests hold none
    assert "xprime_index" not in search["manifest"]
    assert "xprime_index" not in data["manifest"]

    rc = run(["verify", "--bundle", str(mps_out),
              "--checks", "blocking,minimal,trivial"])
    assert rc == 0


@pytest.mark.parametrize("xprime_index", [0, 99, None])
def test_verify_mps_bundle_ignores_xprime_index(mps_flow, tmp_path,
                                                xprime_index):
    # an mps bundle's model is (q1, n, r) alone: a stale `xprime_index` in
    # its manifest, out of range or absent, changes nothing
    data = json.loads(mps_flow[2].read_text())  # holds no xprime_index
    if xprime_index is not None:
        data["manifest"]["xprime_index"] = xprime_index
    bundle = tmp_path / "mps.json"
    bundle.write_text(json.dumps(data))
    report = tmp_path / "rep.json"
    assert run(["verify", "--bundle", str(bundle),
                "--report", str(report)]) == 0
    assert json.loads(report.read_text())["verified"] is True


# sha256 of the standard output of `blockcone search fblocking` (seed 0),
# pinned so that a change to the search which moves its order, its sets or
# their triviality flags fails here across trees
_GOLDEN_SEARCHES = {
    ("2", "2", "2", "0", "9"):
        "a06fcacaed52e8577b24e0f59717287d2f31cd61a166833f02327756b19543fd",
    ("3", "2", "2", "0", "6"):
        "e7258572bb4da60ab109d57940b9fa5162302b4145f303cca2235842e62a6658",
}


@pytest.mark.parametrize("config", sorted(_GOLDEN_SEARCHES))
def test_search_output_matches_golden_hash(config, capsys):
    q1, n, r, s, max_size = config
    capsys.readouterr()
    assert run(["search", "fblocking", "--q1", q1, "--n", n, "--r", r,
                "--s", s, "--max-size", max_size]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _GOLDEN_SEARCHES[config]


@pytest.mark.parametrize("argv", [
    ["construct", "example36", "--q", "-3"],
    ["construct", "example36", "--q", "0"],
    ["construct", "example36", "--q", "1"],
    ["construct", "example36", "--q", "6"],
    ["construct", "mps", "--q1", "0", "--n", "2", "--r", "2", "--s", "0",
     "--bbar", "unused.txt"],
    ["search", "fblocking", "--q1", "1", "--n", "2", "--r", "2", "--s", "0",
     "--max-size", "3"],
])
def test_non_prime_power_order_exits_2(argv, capsys):
    assert run(argv) == 2
    assert "not a prime power" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["construct", "mps", "--q1", "2", "--n", "2", "--r", "2", "--s", "0",
     "--xprime-index", "2", "--bbar", "unused.txt"],
    ["search", "fblocking", "--q1", "2", "--n", "2", "--r", "2", "--s", "0",
     "--xprime-index", "2", "--max-size", "3"],
])
def test_xprime_index_option_is_refused(argv):
    # the cone construction never reads X', so neither command takes it
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("r", ["-1", "0", "1"])
@pytest.mark.parametrize("argv", [
    ["verify", "--bundle", "small_r.json"],
    ["search", "fblocking", "--q1", "2", "--n", "2", "--s", "0",
     "--max-size", "3"],
    ["construct", "mps", "--q1", "2", "--n", "2", "--s", "0",
     "--bbar", "unused.txt"],
])
def test_r_below_2_exits_2(argv, r, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small_r.json").write_text(json.dumps(
        {"kind": "mps", "manifest": {"q1": 2, "n": 2, "r": int(r)},
         "B": [0, 1]}))
    if argv[0] != "verify":
        argv = argv + ["--r", r]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"got r = {r}" in err[0]


@pytest.mark.parametrize("argv", [
    ["verify", "--bundle", "r40.json"],
    ["search", "fblocking", "--q1", "2", "--n", "2", "--r", "40", "--s", "0",
     "--max-size", "3"],
    ["construct", "mps", "--q1", "2", "--n", "2", "--r", "40", "--s", "0",
     "--bbar", "unused.txt"],
])
def test_oversized_space_exits_2(argv, tmp_path, monkeypatch, capsys):
    # PG(40, 4) and PG(80, 2) have more points than int64 ranks can hold
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r40.json").write_text(json.dumps(
        {"kind": "mps", "manifest": {"q1": 2, "n": 2, "r": 40},
         "B": [0, 1]}))
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "too many for int64 ranks" in err[0]


def test_construct_mps_wrong_space_bbar(tmp_path):
    bbar_file = tmp_path / "wrong.txt"
    sp = ProjSpace(3, cached_field(2, 1))
    save_point_set(PointSet(sp, np.array([0, 1])), bbar_file)
    rc = run(["construct", "mps", "--q1", "2", "--n", "2", "--r", "2",
              "--s", "0", "--bbar", str(bbar_file)])
    assert rc == 2


def test_reports_are_deterministic(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"d{i}.json"
        assert run(["construct", "example36", "--q", "2", "--seed", "0",
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # verify reports: identical after dropping wall-clock timings
    reps = []
    for i in range(2):
        rep = tmp_path / f"v{i}.json"
        assert run(["verify", "--bundle", str(tmp_path / "d0.json"),
                    "--checks", "blocking,trivial", "--report",
                    str(rep)]) == 0
        data = json.loads(rep.read_text())
        data.pop("timings_ms")
        data["config"].pop("bundle")
        reps.append(json.dumps(data, sort_keys=True))
    assert reps[0] == reps[1]


def test_readme_cli_block_parses():
    """Every `blockcone ...` command of README's CLI block parses, so that a
    removed subcommand or option cannot linger in the docs."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("blockcone ")]
    assert len(commands) >= 7
    parser = cli.build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


def test_cli_paths_leave_numpy_ma_unimported(tmp_path):
    """construct, verify with all six checks and a search, in one fresh
    process, never import numpy.ma: np.unique, and intersect1d or setdiff1d
    without assume_unique, import it on their first call, at 10-30 ms per
    process."""
    src = Path(cli.__file__).resolve().parent.parent
    bundle = tmp_path / "b.json"
    code = f"""
import contextlib, os, sys
from blockcone import cli
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    assert cli.main(["construct", "example36", "--q", "2",
                     "--out", {str(bundle)!r}]) == 0
    assert cli.main(["verify", "--bundle", {str(bundle)!r}, "--checks",
                     "blocking,minimal,trivial,planar,spectrum,tangency"]) == 0
    assert cli.main(["search", "fblocking", "--q1", "2", "--n", "3",
                     "--r", "2", "--s", "1", "--max-size", "17"]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
