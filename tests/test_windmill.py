"""Windmill certificates: parity sets, residue families, assembly."""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hatlab.windmill as windmill_module
from hatlab import (
    BladePiece,
    CertificateError,
    InfeasibleError,
    ParameterError,
    ProductCertificate,
    ResidueSet,
    SolvableSet,
    Strategy,
    assemble_windmill_strategy,
    build_graph,
    certificate_blade_check,
    certificate_disjointness_check,
    certificate_random_loss_check,
    counting_inequality_check,
    difference_disjoint_family,
    is_difference_disjoint,
    parity_counting_check,
    parity_set,
    parity_set_strategy,
    product_certificate_parity,
    product_certificate_residue,
    read_certificate_file,
    residue_counting_check,
    strategy_guesses,
    sum_avoid_set,
    translate_intersection_max,
    verify_strategy,
    windmill_guesses,
    write_certificate_file,
)
from hatlab.cli import main
from hatlab.windmill import _difference_indicator


# --- parity sets ------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_parity_set_is_exactly_half(k):
    ps = parity_set(k)
    q = 2 * k - 2
    assert ps.q == q
    assert len(ps) == q ** (k - 1) // 2
    for x in itertools.islice(ps.members, 50):
        assert sum(c >= k - 1 for c in x) % 2 == 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_parity_strategies_win_on_their_half(k):
    q = 2 * k - 2
    g = build_graph("complete", k - 1)
    halves = {}
    for side in ("odd", "even"):
        solvable, strat = parity_set_strategy(k, side)
        halves[side] = solvable.members
        assert verify_strategy(g, q, strat, restriction=solvable.members).wins
        # and it must fail somewhere on the other half (it can't win the
        # whole space: that would beat the complete-graph bound)
        if q > k - 1:
            other = frozenset(itertools.product(range(q), repeat=k - 1)) - solvable.members
            assert not verify_strategy(g, q, strat, restriction=other).wins
    assert halves["odd"].isdisjoint(halves["even"])
    assert len(halves["odd"]) + len(halves["even"]) == q ** (k - 1)


def test_parity_strategy_rejects_bad_side():
    with pytest.raises(ParameterError):
        parity_set_strategy(3, "upside")
    with pytest.raises(ParameterError):
        parity_set(1)


# --- residue families -------------------------------------------------------


def residues(m, members):
    mask = np.zeros(m, dtype=bool)
    mask[list(members)] = True
    return ResidueSet(m, mask)


def test_difference_disjoint_family_shapes():
    fam = difference_disjoint_family(3, 2)
    assert fam.modulus == 9
    assert [len(s) for s in fam.sets] == [3, 3]
    assert fam.sets[0].members == frozenset({0, 3, 6})
    assert fam.sets[1].members == frozenset({0, 1, 2})
    assert is_difference_disjoint(fam.sets, 9)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (2, 10)])
def test_families_are_difference_disjoint(d, n):
    fam = difference_disjoint_family(d, n)
    assert is_difference_disjoint(fam.sets, fam.modulus)
    assert translate_intersection_max(fam.sets, fam.modulus, 300, seed=5) == 1


def test_difference_disjointness_counterexample():
    # both difference sets contain 4
    sets = [residues(8, {0, 4}), residues(8, {1, 5})]
    assert not is_difference_disjoint(sets, 8)
    # so some translates meet in two residues (seed 2 finds them on tuple 4)
    assert [translate_intersection_max(sets, 8, t, seed=2) for t in (3, 4)] == [0, 2]


def test_difference_indicator_fft_matches_pairwise(monkeypatch):
    rng = random.Random(3)
    # the default threshold takes the pairwise path here, 0 forces the FFT
    for threshold in (windmill_module.PAIRWISE_MAX_PAIRS, 0):
        monkeypatch.setattr(windmill_module, "PAIRWISE_MAX_PAIRS", threshold)
        for m in (64, 81, 97):
            for _ in range(20):
                members = sorted(rng.sample(range(m), rng.randrange(1, m)))
                got = _difference_indicator(residues(m, members).mask)
                direct = [False] * m
                for a in members:
                    for b in members:
                        direct[(a - b) % m] = True
                assert got.tolist() == direct
    # past the proven error bound the FFT path refuses
    with pytest.raises(InfeasibleError):
        _difference_indicator(residues(windmill_module.FFT_MAX_MODULUS + 1, [0, 1]).mask)


def test_translate_intersection_exhaustive_oracle():
    # small enough to try every translate tuple
    fam = difference_disjoint_family(2, 2)
    m = fam.modulus
    best = 0
    for c1 in range(m):
        for c2 in range(m):
            t1 = {(r + c1) % m for r in fam.sets[0].members}
            t2 = {(r + c2) % m for r in fam.sets[1].members}
            best = max(best, len(t1 & t2))
    assert best == 1
    assert translate_intersection_max(fam.sets, m, 200, seed=0) == best


# translate_intersection_max on {0,4}, {1,5}, {2,6} mod 8 as the int-bitmask
# implementation returned it: a tuple stops drawing at an empty intersection,
# so every later tuple's translates depend on where earlier ones stopped
# (drawing all three translates every time gives different values here)
TRANSLATE_TRIALS = (1, 2, 3, 4, 5, 6, 8)
TRANSLATE_PINS = {
    0: [0, 0, 0, 0, 0, 2, 2],
    4: [0, 0, 2, 2, 2, 2, 2],
    5: [0, 0, 0, 0, 0, 0, 2],
    6: [0, 0, 0, 0, 0, 0, 0],
    7: [0, 0, 0, 2, 2, 2, 2],
}


@pytest.mark.parametrize("seed", sorted(TRANSLATE_PINS))
def test_translate_intersection_max_keeps_its_draw_sequence(seed):
    sets = [residues(8, {0, 4}), residues(8, {1, 5}), residues(8, {2, 6})]
    got = [translate_intersection_max(sets, 8, t, seed=seed) for t in TRANSLATE_TRIALS]
    assert got == TRANSLATE_PINS[seed]
    assert translate_intersection_max(sets, 8, 0, seed=seed) == 0


def test_residue_set_validation():
    with pytest.raises(ParameterError):
        ResidueSet(5, np.zeros(6, dtype=bool))
    with pytest.raises(ParameterError):
        is_difference_disjoint([], 4)
    with pytest.raises(ParameterError):
        difference_disjoint_family(1, 3)
    with pytest.raises(ParameterError):
        translate_intersection_max(difference_disjoint_family(2, 2).sets, 4, -1)


@pytest.mark.parametrize("argv,payload", [
    (["-d", "3", "-n", "2", "--seed", "7"],
     {"d": 3, "n": 2, "modulus": 9, "set_sizes": [3, 3]}),
    (["-d", "2", "-n", "3", "--trials", "5", "--seed", "1"],
     {"d": 2, "n": 3, "modulus": 8, "set_sizes": [4, 4, 4]}),
])
def test_difference_disjoint_lemma_payloads(capsys, argv, payload):
    assert main(["lemma", "difference-disjoint", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"] == {"lemma": "difference-disjoint", **payload,
                                 "disjoint": True, "translate_intersection_max": 1}


# --- sum-avoiding sets ------------------------------------------------------


def test_sum_avoid_set_wins_and_sizes():
    a = residues(4, {0, 2})
    solvable, strat = sum_avoid_set(a, 3, 4)
    assert len(solvable) == 2 * 4  # two allowed totals, 4 tuples each
    g = build_graph("complete", 2)
    assert verify_strategy(g, 4, strat, restriction=solvable.members).wins
    for x in solvable.members:
        assert sum(x) % 4 not in a.members


def test_set_masks_match_enumeration():
    for k in (2, 3, 4):
        q = 2 * k - 2
        odd = {x for x in itertools.product(range(q), repeat=k - 1)
               if sum(c >= k - 1 for c in x) % 2 == 1}
        assert parity_set(k).members == odd
        assert parity_set_strategy(k, "even")[0].members == \
            set(itertools.product(range(q), repeat=k - 1)) - odd
    a = residues(5, {1, 4})
    assert sum_avoid_set(a, 4, 5)[0].members == \
        {x for x in itertools.product(range(5), repeat=3) if sum(x) % 5 not in (1, 4)}


def test_sum_avoid_set_needs_matching_count():
    with pytest.raises(ParameterError):
        sum_avoid_set(residues(4, {0}), 3, 4)  # q-|A|=3 != k-1
    with pytest.raises(ParameterError):
        sum_avoid_set(residues(5, {0}), 3, 4)


# --- certificates -----------------------------------------------------------


def test_parity_certificate_small():
    cert = product_certificate_parity(3, 2)
    assert (cert.k, cert.n, cert.q) == (3, 2, 4)
    assert certificate_disjointness_check(cert)
    assert certificate_blade_check(cert)


def test_parity_certificate_needs_enough_blades():
    # q = 6 distinct products need 3 binary digits
    with pytest.raises(ParameterError):
        product_certificate_parity(4, 2)
    product_certificate_parity(4, 3)


def test_residue_certificate_small():
    cert = product_certificate_residue(2, 2)
    assert (cert.k, cert.n, cert.q) == (3, 2, 4)
    assert certificate_disjointness_check(cert)
    assert certificate_blade_check(cert)


def test_assembled_strategy_wins_exhaustively():
    for cert in (product_certificate_parity(3, 2), product_certificate_residue(2, 2)):
        g = build_graph("windmill", cert.k, cert.n)
        strat = assemble_windmill_strategy(cert)
        report = verify_strategy(g, cert.q, strat)
        assert report.wins and report.assignments_checked == cert.q**g.n_vertices


def test_residue_certificate_single_blade_is_complete_graph():
    # d=3, n=1: q=3, k=3, and W_{3,1} is K_3
    cert = product_certificate_residue(3, 1)
    assert (cert.k, cert.n, cert.q) == (3, 1, 3)
    g = build_graph("windmill", 3, 1)
    strat = assemble_windmill_strategy(cert)
    assert verify_strategy(g, 3, strat).wins


def test_assembly_refuses_huge_axle_tables():
    cert = product_certificate_parity(5, 3)  # q=8, axle table 8^12
    with pytest.raises(InfeasibleError) as exc:
        assemble_windmill_strategy(cert)
    assert exc.value.required == 8**12


def test_broken_certificate_is_caught():
    cert = product_certificate_parity(3, 2)
    # swap one blade's strategy for the opposite side's: sets still tile,
    # so disjointness holds, but that blade no longer wins its set
    wrong = parity_set_strategy(3, "even")[1]
    products = list(cert.products)
    victim = products[0]
    products[0] = (BladePiece(victim[0].solvable, wrong), victim[1])
    broken = ProductCertificate(cert.k, cert.n, cert.q, tuple(products))
    assert certificate_disjointness_check(broken)
    assert not certificate_blade_check(broken)

    # sampling the assembled strategy also finds losses
    strat = assemble_windmill_strategy(broken)
    g = build_graph("windmill", 3, 2)
    assert not verify_strategy(g, 4, strat).wins
    assert certificate_random_loss_check(broken, 4000, seed=1) > 0


def test_duplicate_products_fail_disjointness():
    cert = product_certificate_parity(3, 2)
    products = list(cert.products)
    products[1] = products[0]
    clash = ProductCertificate(cert.k, cert.n, cert.q, tuple(products))
    assert not certificate_disjointness_check(clash)
    with pytest.raises(CertificateError):
        assemble_windmill_strategy(clash)


def test_random_loss_check_zero_on_good_certificates():
    assert certificate_random_loss_check(product_certificate_parity(3, 2), 10**4) == 0
    assert certificate_random_loss_check(product_certificate_residue(2, 2), 10**4) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_windmill_guesses_match_assembled_tables(data):
    cert = product_certificate_residue(2, 2)
    g = build_graph("windmill", cert.k, cert.n)
    strat = assemble_windmill_strategy(cert)
    assignment = tuple(
        data.draw(st.integers(0, cert.q - 1)) for _ in range(g.n_vertices))
    assert windmill_guesses(cert, assignment) == \
        strategy_guesses(g, cert.q, strat, assignment)


def permuted_parity_certificate(pi):
    """product_certificate_parity(3, 2) with color permutation pi applied to
    coordinate 0 of every set: its sets are no longer symmetric under
    swapping coordinates, so an axis-order mix-up cannot cancel out."""
    cert = product_certificate_parity(3, 2)
    pi = np.asarray(pi)
    inv = np.argsort(pi)
    products = []
    for product in cert.products:
        blades = []
        for piece in product:
            t0, t1 = piece.strategy.tables
            blades.append(BladePiece(
                SolvableSet(2, cert.q, piece.solvable.mask[inv]),
                Strategy(cert.q, (pi[t0].astype(t0.dtype), t1[inv]))))
        products.append(tuple(blades))
    return ProductCertificate(cert.k, cert.n, cert.q, tuple(products))


def test_asymmetric_certificate_fixes_the_mask_axis_order(tmp_path):
    cert = permuted_parity_certificate([1, 2, 3, 0])
    mask = cert.products[0][0].solvable.mask
    assert not np.array_equal(mask, mask.T)
    assert certificate_blade_check(cert)
    assert certificate_disjointness_check(cert)
    g = build_graph("windmill", cert.k, cert.n)
    strat = assemble_windmill_strategy(cert)
    assert verify_strategy(g, cert.q, strat).wins
    rng = random.Random(7)
    for _ in range(200):
        a = tuple(rng.randrange(cert.q) for _ in range(g.n_vertices))
        assert windmill_guesses(cert, a) == strategy_guesses(g, cert.q, strat, a)
    assert certificate_random_loss_check(cert, 4000, seed=2) == 0
    with pytest.raises(ParameterError):
        windmill_guesses(cert, (0, 0, 0, 0, cert.q))
    path = tmp_path / "cert.json"
    write_certificate_file(str(path), cert)
    back = read_certificate_file(str(path))
    assert [[p.solvable for p in product] for product in back.products] == \
        [[p.solvable for p in product] for product in cert.products]


# --- counting ---------------------------------------------------------------


def test_counting_inequalities_hold():
    assert all(parity_counting_check(k) for k in range(2, 7))
    assert all(residue_counting_check(d, n)
               for d in range(2, 6) for n in range(1, 6))
    assert counting_inequality_check("parity", k=3)
    assert counting_inequality_check("residue", d=2, n=2)
    with pytest.raises(ParameterError):
        counting_inequality_check("magic", k=3)
    with pytest.raises(ParameterError):
        parity_counting_check(1)
    with pytest.raises(ParameterError):
        residue_counting_check(2, 0)


# --- files ------------------------------------------------------------------


def test_certificate_file_round_trip(tmp_path):
    cert = product_certificate_residue(2, 2)
    path = tmp_path / "cert.json"
    write_certificate_file(str(path), cert)
    back = read_certificate_file(str(path))
    assert (back.k, back.n, back.q) == (cert.k, cert.n, cert.q)
    for ours, theirs in zip(cert.products, back.products):
        for a, b in zip(ours, theirs):
            assert a.solvable == b.solvable
            assert a.strategy.table_lists() == b.strategy.table_lists()
    # and the reread certificate still assembles into a winner
    g = build_graph("windmill", back.k, back.n)
    assert verify_strategy(g, back.q, assemble_windmill_strategy(back)).wins


def test_certificate_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"k": 3, "n": 2, "q": 4}')
    with pytest.raises(ParameterError):
        read_certificate_file(str(path))


def mangled(tmp_path, edit):
    """A written parity certificate (k=3, n=2, q=4) with `edit` applied."""
    path = tmp_path / "cert.json"
    write_certificate_file(str(path), product_certificate_parity(3, 2))
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return str(path)


def set_first_entry(key, value):
    def edit(payload):
        payload["products"][0][0][key][0][0] = value
    return edit


@pytest.mark.parametrize("edit", [
    set_first_entry("strategy", -1),
    set_first_entry("strategy", 9),
    set_first_entry("set", -1),
    set_first_entry("set", 7),
    set_first_entry("set", 1.5),
    set_first_entry("set", True),
    lambda p: p["products"][0][0]["set"][0].append(0),
    lambda p: p.update(k="3"),
], ids=["guess-negative", "guess-9-at-q4", "coordinate-negative", "coordinate-7-at-q4",
        "coordinate-float", "coordinate-bool", "member-wrong-length", "k-string"])
def test_certificate_file_rejects_bad_values(tmp_path, edit):
    with pytest.raises(ParameterError):
        read_certificate_file(mangled(tmp_path, edit))


def test_certificate_file_refuses_oversized_masks(tmp_path):
    path = mangled(tmp_path, lambda p: p.update(k=200))
    with pytest.raises(InfeasibleError):
        read_certificate_file(path)


# --- byte pins --------------------------------------------------------------
# sha256 of files and tables as the builders wrote them before solvable sets
# became masks; any change to assembly or the file formats shows here.


@pytest.mark.parametrize("argv,digest", [
    (["windmill-2k2", "-k", "3", "-n", "2"],
     "d39f75be27264a094e8ccc572506f5aa184583fa06a866b6d6b8ba2725eea856"),
    (["windmill-2k2", "-k", "3", "-n", "2", "--certificate"],
     "628f937f3b7cbc7d2dd5d7fb2ecd08d614d608410c84281ecdda3f93b248a1f2"),
    (["windmill-dn", "-d", "2", "-n", "2"],
     "3f3cff05a1883e9f320af841df232329e21bf2b9f3c55debac47fe7061bd0f6e"),
    (["windmill-dn", "-d", "2", "-n", "3", "--certificate"],
     "55624706be9c091710af9a095d649617f46bfd250be6cddaa4794dcd9c968b7e"),
    (["k22"], "a70c06fa2c9f8e4c61b3a9dc40aa5643f1cf31d819aaff350e242f4900eb18dd"),
])
def test_constructed_files_are_byte_stable(capsys, tmp_path, argv, digest):
    out = tmp_path / "f.json"
    assert main(["construct", *argv, "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_w43_tables_are_byte_stable():
    strat = assemble_windmill_strategy(product_certificate_parity(4, 3))
    digest = hashlib.sha256(b"".join(t.tobytes() for t in strat.tables)).hexdigest()
    assert digest == "0055be0b218d8dbe35cd2192ff3a7872c5d0a304722a2a156035c7da987b050a"
