"""The non-planar PG(3, q^6) example at q = 2: frame invariants, cardinality
formulas, spectra, tangency, and the cardinality excluder; and the spectrum
theorems at q = 3."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from blockcone import example36 as ex
from blockcone import linalg, pg, verify
from blockcone.pg import GeometryError, PointSet, meet, span, span_in


@pytest.fixture(scope="module")
def bundle():
    return ex.example_build(2, 0)


@pytest.fixture(scope="module")
def frame(bundle):
    return bundle.frame


def test_exact_cardinalities(bundle, frame):
    q = 2
    aff = frame.bbar.vecs()[:, -1] != 0
    assert int(aff.sum()) == q**4
    assert len(frame.btilde) == 3 * q**4 - 3 * q**2 + 1
    assert len(bundle.B) == 4 * q**6 - 3 * q**4 + q**2 + 1


def test_frame_incidence_invariants(frame):
    m = frame.model
    sp = m.sigma_prime
    # Gamma: hyperplane of Sigma through X', missing p
    assert frame.mps.gamma.dim == 7
    assert m.sigma.contains_sub(frame.mps.gamma)
    assert frame.mps.gamma.contains_sub(frame.Xprime)
    assert not frame.mps.gamma.contains(m.vertex_p)
    # Theta = Gamma cap X is a line with r, q_tilde its least points
    assert frame.mps.theta.dim == 1
    tp = frame.mps.theta.point_vecs()
    assert np.array_equal(tp[0], frame.r_pt)
    assert np.array_equal(tp[1], frame.q_tilde)
    # pi cap Sigma = <t, q_tilde>
    assert frame.pi.dim == 2
    assert meet(frame.pi, m.sigma) == span_in(sp, [frame.t, frame.q_tilde])
    # Bbar cap Sigma = Theta; Btilde misses Sigma
    bbar_in_sigma = frame.bbar.ranks[frame.bbar.vecs()[:, -1] == 0]
    assert np.array_equal(np.sort(bbar_in_sigma),
                          np.sort(frame.mps.theta.point_ranks()))
    assert np.all(frame.btilde.vecs()[:, -1] != 0)
    assert len(frame.bbar.intersect(frame.btilde)) == 0


def test_baer_subplane_line_classification(frame):
    """Every line of pi meets V in 1 or q+1 points; the unique real line
    through t is L and s_pt is on both V and L."""
    q = frame.q
    sp = frame.model.sigma_prime
    assert len(frame.V) == q * q + q + 1
    seen = set()
    reals_through_t = 0
    for v in frame.pi.point_vecs():
        for w in frame.pi.point_vecs():
            L = span_in(sp, [v, w])
            if L.dim != 1 or L in seen:
                continue
            seen.add(L)
            kind, hits = ex.line_class(L, frame.V, q)
            assert kind in ("real", "imaginary")
            if kind == "real" and L.contains(frame.t):
                reals_through_t += 1
                assert L == frame.L
    assert len(seen) == 21  # lines of PG(2,4)
    assert reals_through_t == 1
    s_rank = pg.rank_of(sp, frame.s_pt)
    assert s_rank in frame.V
    assert frame.L.contains(frame.s_pt)
    # V meets the tangent <t, q_tilde> only in q_tilde
    tangent = span_in(sp, [frame.t, frame.q_tilde])
    hit = [r for r in tangent.point_ranks() if int(r) in frame.V]
    assert hit == [pg.rank_of(sp, frame.q_tilde)]


def test_line_class_rejects_cone_vertex_lines(frame):
    sp = frame.model.sigma_prime
    L = span_in(sp, [frame.r_pt, frame.t])
    with pytest.raises(GeometryError):
        ex.line_class(L, frame.V, frame.q, vertex=frame.r_pt)


def test_t_tilde_unique_and_regulus_consistent(frame):
    m = frame.model
    sp = m.sigma_prime
    assert frame.Xprime.contains(frame.t_tilde)
    assert not np.array_equal(frame.t_tilde, frame.t)
    # <p, t_tilde> is a transversal of the regulus of <t, r>
    reg = set(m.regulus_of_line(span_in(sp, [frame.t, frame.r_pt])))
    reg2 = set(m.regulus_of_line(span_in(sp, [m.vertex_p, frame.t_tilde])))
    assert reg == reg2 and len(reg) == m.q1 + 1
    # rebuilding the frame reproduces the same point (determinism)
    again = ex.t_tilde_find(m, frame.Xprime, frame.t, frame.r_pt,
                            m.vertex_p)
    assert np.array_equal(again, frame.t_tilde)


def _t_tilde_qualifiers_by_scan(frame, t, r_pt, p_vec):
    """Oracle: the direct definition, one <p, S2> per element S2 of the big
    line <X, X'> that misses <t, r_pt>; the X' points left are returned as
    ranks."""
    model = frame.model
    sp = model.sigma_prime
    big = model.spread.big_space
    line_tr = span_in(sp, [t, r_pt])
    xline = span_in(big, [pg.unrank(big, model.x_index),
                          pg.unrank(big, frame.xprime_index)])
    alive = set(int(x) for x in frame.Xprime.point_ranks())
    alive.discard(pg.rank_of(sp, t))
    for idx in xline.point_ranks():
        S2 = model.element_subspace(int(idx))
        if meet(S2, line_tr).dim >= 0:
            continue
        SP = span([span_in(sp, [p_vec]), S2])
        alive = {rk for rk in alive if not SP.contains(pg.unrank(sp, rk))}
    return alive


def _least_h_by_full_scan(model, Xprime, gamma_prime, pi):
    """Oracle: every point of Sigma' in rank order, tested against the dual
    forms of Gamma' and of <X, X', pi>."""
    sp = model.sigma_prime
    gp_forms = gamma_prime.dual_forms()
    w_forms = span([model.X, Xprime, pi]).dual_forms()
    for lo in range(0, sp.n_points, 1 << 13):
        vecs = pg.unrank_batch(sp, np.arange(lo, min(lo + (1 << 13),
                                                     sp.n_points)))
        ok = vecs[:, -1] != 0
        for fvec in gp_forms:
            ok &= pg.dot(sp, vecs, np.broadcast_to(fvec, vecs.shape)) == 0
        out_w = np.zeros(len(vecs), dtype=bool)
        for fvec in w_forms:
            out_w |= pg.dot(sp, vecs, np.broadcast_to(fvec, vecs.shape)) != 0
        ok &= out_w
        if np.any(ok):
            return vecs[np.argmax(ok)]
    raise AssertionError("no admissible h")


@pytest.fixture(scope="module")
def bundles_q2():
    return [ex.example_build(2, seed) for seed in range(8)]


@pytest.fixture(scope="module")
def frames_q2(bundles_q2):
    return [b.frame for b in bundles_q2]


def test_xprime_is_the_frames_second_spread_element(bundles_q2):
    # X' is the example's choice, element 1 + (seed mod 8) of its model: a
    # spread element of Sigma disjoint from X, recorded in the manifest
    for seed, b in enumerate(bundles_q2):
        fr, m = b.frame, b.frame.model
        assert fr.xprime_index == 1 + seed % 8
        assert fr.Xprime == m.element_subspace(fr.xprime_index)
        assert m.X.dim == fr.Xprime.dim == m.n - 1
        assert m.sigma.contains_sub(fr.Xprime)
        assert meet(m.X, fr.Xprime).dim == -1
        assert b.manifest()["xprime_index"] == fr.xprime_index


def test_gamma_is_least_form_through_xprime_missing_p(frames_q2):
    # dense scan of all 87,381 forms of Sigma = PG(8, 4), against the
    # frame's lazy walk over the forms vanishing on X'
    sint = pg.ProjSpace(8, frames_q2[0].model.tower.sub)
    forms = pg.unrank_batch(sint, np.arange(sint.n_points))
    for fr in frames_q2:
        model = fr.model
        on_xp = ~linalg.matmul(forms, fr.Xprime.mat[:, :9].T,
                               sint.field).any(axis=1)
        off_p = pg.dot(sint, forms, np.broadcast_to(model.vertex_p[:9],
                                                     forms.shape)) != 0
        least = forms[np.argmax(on_xp & off_p)]
        gamma = fr.mps.gamma
        assert not gamma.mat[:, 9].any()
        assert np.array_equal(
            pg.Subspace(sint, gamma.mat[:, :9]).dual_forms(), least[None, :])


def test_t_tilde_batch_matches_definition_scan(frames_q2):
    for fr in frames_q2:
        m = fr.model
        sp = m.sigma_prime
        expect = _t_tilde_qualifiers_by_scan(fr, fr.t, fr.r_pt, m.vertex_p)
        got = ex.t_tilde_find(m, fr.Xprime, fr.t, fr.r_pt, m.vertex_p)
        assert expect == {pg.rank_of(sp, got)}
        assert np.array_equal(got, fr.t_tilde)


def _check_least_h(frames):
    for fr in frames:
        expect = _least_h_by_full_scan(fr.model, fr.Xprime,
                                       fr.mps.gamma_prime, fr.pi)
        got = ex._least_h(fr.model, fr.Xprime, fr.mps.gamma_prime, fr.pi)
        assert np.array_equal(got, expect)
        assert np.array_equal(got, fr.h)


def test_least_h_matches_full_scan(frames_q2):
    # h is coefficient vector 1,366 of Gamma', in the walk's first chunk
    _check_least_h(frames_q2)


def test_least_h_matches_full_scan_across_chunks(frames_q2, monkeypatch):
    # chunks of 5 put h in the walk's 274th chunk
    monkeypatch.setattr(ex, "_WALK_CHUNK", 5)
    _check_least_h(frames_q2)


def test_least_h_q3_rank(bundle_q3):
    # h is coefficient vector 66,431 of Gamma', in the walk's ninth chunk;
    # its Sigma' rank is the same for every seed
    frames = [bundle_q3.frame] + [ex.frame36_make(3, s) for s in range(1, 8)]
    for fr in frames:
        assert pg.rank_of(fr.model.sigma_prime, fr.h) == 597_872


def test_least_h_needs_a_hyperplane(frame):
    # Gamma has codimension 2 in Sigma'
    with pytest.raises(GeometryError, match="hyperplane"):
        ex._least_h(frame.model, frame.Xprime, frame.mps.gamma, frame.pi)


def test_xprime_line_triple(frame):
    sp = frame.model.sigma_prime
    L1, L2, L3 = frame.lines_xp
    common = meet(meet(L1, L2), L3)
    assert common.dim == -1
    for L in (L1, L2, L3):
        assert L.dim == 1
        assert frame.Xprime.contains_sub(L)
        assert not L.contains(frame.t)
        assert not L.contains(frame.t_tilde)


def test_h_outside_solid(frame):
    W = span([frame.model.X, frame.Xprime, frame.pi])
    assert frame.mps.gamma_prime.contains(frame.h)
    assert frame.h[-1] != 0
    assert not W.contains(frame.h)


def test_b_in_pi_is_minimal_nontrivial_nonplanar(bundle):
    cov = verify.blocking_check(bundle.B)
    assert cov.blocking
    assert verify.minimality_check(bundle.B, cov).minimal
    assert not verify.triviality_check(bundle.B)
    dim, planar = verify.planarity_check(bundle.B)
    assert (dim, planar) == (3, False)


def test_b_contains_x_point(bundle):
    m = bundle.frame.model
    x_rank = pg.rank_of(m.pi_space, m.spread_to_pg_vec(m.x_index))
    assert x_rank in bundle.B


def test_bbar_spectrum(bundle):
    res = ex.spectrum_scan(bundle)["bbar"]
    assert set(map(int, res["histogram"])) <= {0, 1, 2, 3}


def test_structural_checks_exercise_every_clause(bundle):
    # half the sample lies in the X'-subfamily, so the clause on real meet
    # lines through t runs too
    res = ex.structural_checks(bundle)
    assert res["sampled"] == 100
    assert res["ht"] >= 1 and res["off"] >= 1
    assert res["real_through_t"] >= 1


def test_btilde_spectrum_and_dichotomy(bundle):
    res = ex.spectrum_scan(bundle)["btilde"]
    assert set(map(int, res["histogram"])) <= {0, 1, 2, 3, 4, 37}
    assert set(map(int, res["ht_histogram"])) <= {0, 37}
    # the X'-subfamily has q^8 members
    assert sum(res["ht_histogram"].values()) == 2**12


def test_family_scanner_against_subspace_membership(bundle):
    """Vectorized membership equals the direct S7-subspace test."""
    frame = bundle.frame
    sc = ex.FamilyScanner(frame)
    rng = np.random.default_rng(0)
    pts = np.concatenate([frame.bbar.ranks[:4], frame.btilde.ranks[:4]])
    pos = rng.choice(len(sc.ranks), size=40, replace=False)
    for rank in pts:
        u = pg.unrank(frame.model.sigma_prime, int(rank))
        memb = sc.membership(u)
        for i in pos:
            S7 = span([frame.model.hyperplane_blowup(sc.duals[i]),
                       frame.model.vertex_p])
            assert bool(memb[i]) == S7.contains(u)


def _family_scanner_oracle(bundle):
    """Family counts and tangency witnesses from `FamilyScanner`'s direct S7
    membership: the counts of Bbar, Btilde and their union on every family
    member, and per affine point u of the union the least member rank with
    u in S7, union count 1 and the expected X'-side (None if there is
    none)."""
    fr = bundle.frame
    sc = ex.FamilyScanner(fr)
    union = fr.bbar.union(fr.btilde)
    vecs = union.vecs()
    member = np.stack([sc.membership(u) for u in vecs], axis=1)
    in_bbar = np.isin(union.ranks, fr.bbar.ranks)
    counts = {"bbar": member[:, in_bbar].sum(axis=1),
              "btilde": member[:, ~in_bbar].sum(axis=1),
              "union": member.sum(axis=1)}
    witnesses = []
    for col in np.flatnonzero(vecs[:, -1] != 0):
        side = sc.ht_mask if in_bbar[col] else ~sc.ht_mask
        cand = member[:, col] & (counts["union"] == 1) & side
        witnesses.append((int(union.ranks[col]),
                          int(sc.ranks[np.argmax(cand)]) if cand.any()
                          else None))
    return sc, counts, witnesses


@pytest.fixture(scope="module")
def oracles_q2(bundles_q2):
    return [_family_scanner_oracle(b) for b in bundles_q2]


def _histogram(values):
    v, c = np.unique(values, return_counts=True)
    return dict(zip(v.tolist(), c.tolist()))


def test_image_counts_match_family_scanner(bundles_q2, oracles_q2):
    """Counting the cone's Pi-image gives FamilyScanner's counts on every
    family member (Lemma 2); the members are the ranks missing from X's, and
    the X'-subfamily agrees too."""
    for b, (sc, counts, _) in zip(bundles_q2, oracles_q2):
        fr = b.frame
        for key, ps in (("bbar", fr.bbar), ("btilde", fr.btilde),
                        ("union", fr.bbar.union(fr.btilde))):
            cov = verify.blocking_check(ex.cone_image(fr.mps, ps))
            assert np.array_equal(cov.counts[sc.ranks], counts[key])
        # the q1 image points of u share a line through X, so a cell through
        # X holds a multiple of q1 (never 1, as tangency_scan relies on)
        x_ranks = fr.mps.x_ranks
        assert np.all(cov.counts[x_ranks] % fr.model.q1 == 0)
        assert np.array_equal(fr.xprime_members, sc.ranks[sc.ht_mask])
        n = fr.model.pi_space.n_points
        assert np.array_equal(sc.ranks, np.setdiff1d(np.arange(n), x_ranks))


def test_scans_match_family_scanner(bundles_q2, oracles_q2):
    for b, (sc, counts, witnesses) in zip(bundles_q2, oracles_q2):
        res = ex.spectrum_scan(b)
        for target in ("bbar", "btilde"):
            assert res[target]["histogram"] == _histogram(counts[target])
        assert res["btilde"]["ht_histogram"] == _histogram(
            counts["btilde"][sc.ht_mask])
        tan = ex.tangency_scan(b)
        assert [(w["point"], w["witness"])
                for w in tan["witnesses"]] == witnesses


def test_spectrum_violation_names_least_bad_member(bundle, oracles_q2):
    """With Btilde's points added, Bbar leaves its spectrum; the error names
    the least family member whose count is out of the set, as FamilyScanner
    finds it."""
    fr = bundle.frame
    sc, counts, _ = oracles_q2[0]  # frame seed 0, as `bundle`
    union = counts["union"]
    i = int(np.argmax(~np.isin(union, [0, 1, 2, 3])))
    broken = ex.Bundle(frame=dataclasses.replace(
        fr, bbar=fr.bbar.union(fr.btilde)), B=bundle.B)
    with pytest.raises(GeometryError, match=rf"\| = {union[i]} at dual "
                       rf"{re.escape(str(sc.duals[i].tolist()))} "
                       rf"\(rank {sc.ranks[i]}\)"):
        ex.spectrum_scan(broken)


def test_cone_image_refuses_shared_lines(bundle):
    """Two points on one line through p would make the image undercount."""
    fr = bundle.frame
    m = fr.model
    f = m.tower.sub
    u = fr.btilde.vecs()[0]
    other = f.add_table[u, f.mul_table[1, m.vertex_p]]
    ps = PointSet.from_vecs(m.sigma_prime, [u, other])
    with pytest.raises(GeometryError, match="line through p"):
        ex.cone_image(fr.mps, ps)


@pytest.fixture(scope="module")
def bundle_q3():
    """The q = 3 seed-0 bundle, shared so that its theorems read one count
    of B."""
    return ex.example_build(3, 0)


def test_q3_spectrum_theorems(bundle_q3):
    """Both spectra at q = 3 over all q^18 family members: the values lie in
    the proved sets, each member is counted once, and the double count
    sum(value x frequency) = |image| x Q^2 holds, every image point lying on
    Q^2 members."""
    q = 3
    bundle = bundle_q3
    bt = len(bundle.frame.btilde)
    spectra = ex.spectrum_scan(bundle)
    rb, rt = spectra["bbar"], spectra["btilde"]
    for res, allowed, image in ((rb, {0, 1, q, q + 1}, q**6),
                                (rt, {0, 1, 2, 3, q * q, bt}, bt * q * q)):
        hist = res["histogram"]
        assert set(hist) <= allowed
        assert sum(hist.values()) == q**18
        assert sum(v * c for v, c in hist.items()) == image * q**12
    assert sum(v * c for v, c in rb["histogram"].items()) == 387_420_489
    assert sum(v * c for v, c in rt["histogram"].items()) == 1_037_904_273
    assert set(rt["ht_histogram"]) <= {0, bt}
    assert sum(rt["ht_histogram"].values()) == q**12
    # the structural sample reaches every clause at q = 3 too
    st = ex.structural_checks(bundle)
    assert st["sampled"] == 100
    assert st["ht"] >= 1 and st["real_through_t"] >= 1


def test_tangency_witnesses(bundle):
    res = ex.tangency_scan(bundle)
    assert res["count"] == 53  # all affine points of Bbar u Btilde
    for w in res["witnesses"]:
        assert w["in_xprime_family"] == (w["part"] == "bbar")


# sha256 of the q = 3 tangency witnesses (json, sorted keys), as the
# point-major scan of each image point's dual ranks found them
_GOLDEN_Q3_TANGENCY = \
    "e667e8a9822ada48fdec249b134e4b5839d8e9903fb0185eaa06c8fdc67671b0"


def test_q3_tangency_witnesses(bundle_q3):
    """All 298 = 4q^4 - 3q^2 + 1 tangency witnesses at q = 3: each misses X,
    meets the union's cone image in exactly one image point of its own point,
    and lies on the X'-side of its part; the list is the pinned one."""
    q = 3
    bundle = bundle_q3
    fr = bundle.frame
    model = fr.model
    sp = model.pi_space
    res = ex.tangency_scan(bundle)
    ws = res["witnesses"]
    assert res["count"] == len(ws) == 4 * q**4 - 3 * q**2 + 1
    union = fr.bbar.union(fr.btilde)
    image = ex.cone_image(fr.mps, union)
    duals = pg.unrank_batch(sp, np.array([w["witness"] for w in ws]))
    on = np.stack([pg.dot(sp, duals, np.broadcast_to(v, duals.shape)) == 0
                   for v in image.vecs()], axis=1)
    x = model.spread_to_pg_vec(model.x_index)
    xp = model.spread_to_pg_vec(fr.xprime_index)
    for i, w in enumerate(ws):
        own = ex.cone_image(fr.mps, PointSet(model.sigma_prime, [w["point"]]))
        assert on[i].sum() == 1 and image.ranks[on[i]][0] in own
        assert pg.dot(sp, duals[i], x) != 0
        through_xp = bool(pg.dot(sp, duals[i], xp) == 0)
        assert through_xp == w["in_xprime_family"] == (w["part"] == "bbar")
        assert (w["point"] in fr.bbar) == (w["part"] == "bbar")
    text = json.dumps(ws, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_Q3_TANGENCY


def test_seed_variants_build(bundle):
    alt = ex.example_build(2, 1)
    assert len(alt.B) == len(bundle.B)
    assert alt.frame.xprime_index == 2


def test_bundle_roundtrip_and_tamper_detection(bundle, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(ex.bundle_to_dict(bundle)) + "\n")
    again = ex.load_bundle(path, strict=True)
    assert again.B == bundle.B
    data = json.loads(path.read_text())
    data["B"] = data["B"][:-1]
    path.write_text(json.dumps(data))
    with pytest.raises(GeometryError):
        ex.load_bundle(path, strict=True)
    lenient = ex.load_bundle(path, strict=False)
    assert len(lenient.B) == len(bundle.B) - 1


# sha256 of json.dumps(bundle_to_dict(example_build(q, seed))), pinned so
# that a change to the field, model or construction code which moves a single
# byte of a bundle fails here, across trees and not only within one run
_GOLDEN_BUNDLES = {
    (2, 0): "6e04401a81b362329684b7935bba2fcd737b2d6f128c1ef51008f2e9aeb4646d",
    (2, 1): "92230ece5d1b797aa26739d0e8620033f85748550d5e7b4ac7abc60293434526",
    (2, 2): "980732eec6cd97b74da9efe75f7e6211e38dbfd9bd8dc578786858c23e4fa6dd",
    (2, 3): "cab1970603aafa0c2dcb480faadf95f88045f337b8157a3eccbb38b8223d2ead",
    (2, 4): "be97dcfaab21aee9119af97b39d86f15d0ddd4e3195da85a0d9acadcb51cac4e",
    (2, 5): "27381ed085ba57ef47a339848b803f0f33dd8b07c8d937ec491f266dc2f03b19",
    (2, 6): "57cde64e92bf5ddd3716f26acfed85d06635f9f570dffac8a787d16fdcb0fb92",
    (2, 7): "2d84a8a744e2a9abb1bb235e8adfbec174dc253ad7a5acf71caf5213438cc3b9",
    (3, 0): "77bb87b865d5d8c1e029aa12836111c0472c020c104927bb75b79236c591d9cf",
}


def test_bundles_match_golden_hashes(bundles_q2, bundle_q3):
    built = {(2, seed): b for seed, b in enumerate(bundles_q2)}
    built[3, 0] = bundle_q3
    for key, bundle in built.items():
        text = json.dumps(ex.bundle_to_dict(bundle))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            _GOLDEN_BUNDLES[key], key


def test_excluder_values():
    for size, p, e in [(213, 2, 1), (2683, 3, 1)]:
        res = ex.mps_excluder(size, p, e)
        assert res["excluded"]
        assert {f["n"] for f in res["factorizations"]} == {2, 3, 6}


def test_excluder_admissible_case():
    # size - 1 divisible by p^(t(n-1)) for some factorization -> not excluded
    res = ex.mps_excluder(2**10 + 1, 2, 1)
    assert not res["excluded"]
    assert res["admissible"]


def test_excluder_rejects_bad_input():
    with pytest.raises(GeometryError):
        ex.mps_excluder(213, 4, 1)
    with pytest.raises(GeometryError):
        ex.mps_excluder(1, 2, 1)
    for e in (0, -1):
        with pytest.raises(GeometryError):
            ex.mps_excluder(213, 2, e)


def test_manifest_records_choices(bundle):
    man = bundle.manifest()
    for key in ("q", "seed", "sizes", "r_pt", "q_tilde", "t", "s_pt",
                "t_tilde", "h", "q1", "n", "r"):
        assert key in man
    assert man["sizes"] == {"bbar": 21, "btilde": 37, "B": 213}
