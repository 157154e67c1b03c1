"""Structural nonexistence rules: frozen verdicts, witnesses, soundness."""

import dataclasses
import itertools
import json
import tracemalloc

import pytest

from rotbent import (
    INCONCLUSIVE,
    NOT_BENT,
    InternalInconsistencyError,
    Sanf,
    all_checks,
    cover_coefficient,
    enumerate_orbit_reps,
    is_bent,
    nonexistence,
    orbit_expand,
    parse_sanf,
    sanf_truth_table,
    verify_witness,
    walsh_spectrum,
)
from rotbent.cli import main
from rotbent.covercoef import CoverValue, cover_coefficient_from_spectrum
from rotbent.nonexistence import (
    check_block_pair,
    check_gap_bounds,
    check_leading_block,
    check_shift_chain,
    check_sparse_triple,
)
from rotbent.rotsym import sanf_from_masks


def test_odd_n_short_circuits():
    for _, checker in nonexistence.RULES:
        for text in ("x1x2x3", "x1x2", "x1x2+x1x2x3"):
            rep = checker(parse_sanf(text, 9))
            assert rep.verdict == NOT_BENT
            assert rep.rule == "odd-n"


def test_degree_bound_short_circuits():
    for _, checker in nonexistence.RULES:
        for text in ("x1x2x3x4x5", "x1x2x3+x1x2x3x4x5"):
            rep = checker(parse_sanf(text, 8))
            assert rep.verdict == NOT_BENT
            assert rep.rule == "degree-bound"


def _assert_every_rule_needs_degree_three(sanf):
    for name, checker in nonexistence.RULES:
        rep = checker(sanf)
        assert rep.verdict == INCONCLUSIVE, name
        assert rep.rule == name
        assert rep.detail == "rule needs homogeneous degree >= 3"


def test_no_rule_rejects_the_two_variable_bent_function():
    # x1x2 on two variables is bent; nothing may claim otherwise.
    for _, rep in all_checks(parse_sanf("x1x2", 2)):
        assert rep.verdict == INCONCLUSIVE


def test_shift_chain_contiguous_block():
    rep = check_shift_chain(parse_sanf("x1x2x3", 8))
    assert rep.verdict == NOT_BENT
    assert rep.witness_u0 == 0b00111111
    assert rep.witness_k == 2
    assert rep.claimed_valuation == 2
    rep = check_shift_chain(parse_sanf("x1x2x3", 10))
    assert rep.verdict == NOT_BENT
    assert rep.witness_k == 3
    assert rep.claimed_valuation == 3


def test_shift_chain_small_pair_inconclusive():
    # On six variables no chain length satisfies both k(d-1) >= n/2 and
    # kd < n; the rule declines rather than guessing.
    rep = check_shift_chain(parse_sanf("x1x2x3+x1x2x4", 6))
    assert rep.verdict == INCONCLUSIVE
    # larger n: a second orbit holding a one-gap variant of a split of
    # x1x2x3 (x1x2.x4, or x1.x3x4 in the orbit of x1x2x7 at n=8) excludes
    # every chain
    for text, n in [("x1x2x3+x1x2x4", 8), ("x1x2x3+x1x2x4", 12), ("x1x2x3+x1x2x7", 8)]:
        assert check_shift_chain(parse_sanf(text, n)).verdict == INCONCLUSIVE, (text, n)


def test_shift_chain_needs_degree_three():
    assert check_shift_chain(parse_sanf("x1x2", 8)).verdict == INCONCLUSIVE
    _assert_every_rule_needs_degree_three(parse_sanf("x1x2", 8))


def test_shift_chain_chains_the_rep_of_least_span():
    # d1 is the least largest set position over the reps, u1 the first rep
    # attaining it, whatever the input order
    rep = check_shift_chain(parse_sanf("x1x2x5+x1x2x4", 12))
    assert rep.verdict == NOT_BENT
    assert rep.detail.endswith("d1=4 chain of x1x2x4")


# The profile tests pin the structure facts the rules read off a SANF: the
# homogeneous degree, the reps' largest set positions, d1/u1 and the block
# splits of u1.


def test_profile_block_pair():
    sanf = parse_sanf("x1x2x3+x1x2x4", 6)
    assert sanf.n == 6
    assert sanf.homogeneous_degree == 3
    assert len(sanf.reps) == 2
    assert tuple(r.bit_length() for r in sanf.reps) == (3, 4)
    # d1 = 3, u1 = x1x2x3; its widest split is l=2: a = x1x2, b = x1
    assert nonexistence._valid_splits(0b111, 3) == [1, 2]
    # the chain is built on u1 whichever rep comes first
    rep = check_shift_chain(parse_sanf("x1x3x5+x1x2x3", 10))
    assert rep.verdict == NOT_BENT
    assert rep.detail.endswith("d1=3 chain of x1x2x3")


def test_profile_single_blocks():
    rep = check_shift_chain(parse_sanf("x1x2x3", 8))
    assert rep.verdict == NOT_BENT
    assert rep.detail.endswith("d1=3 chain of x1x2x3")
    rep = check_shift_chain(parse_sanf("x1x2x4", 8))
    assert rep.verdict == NOT_BENT
    assert rep.detail.endswith("d1=4 chain of x1x2x4")
    # x1x2x4 splits only at l=1: a = x1, b = x1x3
    assert nonexistence._valid_splits(0b1011, 4) == [1]
    assert "l=1 d1=4" in rep.detail


def test_profile_rejects_mixed_degrees():
    sanf = Sanf(6, (3, 7))
    assert sanf.homogeneous_degree is None
    # the rules that read the structure decline a mixed-degree SANF
    for check in (check_shift_chain, check_block_pair, check_sparse_triple):
        assert check(sanf).verdict == INCONCLUSIVE


def test_leading_block():
    rep = check_leading_block(parse_sanf("x1x2x3", 6))
    assert rep.verdict == NOT_BENT
    assert rep.witness_u0 == 0b011111
    assert rep.witness_k == 2
    rep = check_leading_block(parse_sanf("x1x2x3+x1x3x5", 10))
    assert rep.verdict == NOT_BENT
    assert rep.witness_u0 == (1 << 9) - 1
    assert rep.witness_k == 3
    # x1x2x6 has only two cyclic runs, so the shape precondition fails.
    rep = check_leading_block(parse_sanf("x1x2x3+x1x2x6", 10))
    assert rep.verdict == INCONCLUSIVE
    assert "x1x2x6" in rep.detail


def _block_pair(n, d):
    """x1...xd + x1...x(d-1)x(d+1) on n variables."""
    return sanf_from_masks([(1 << d) - 1, (1 << (d - 1)) - 1 | 1 << d], n)


def test_block_pair_small_cases_checked_spectrally():
    # every shape of n = 6-22 whose chain witness does not verify, up to the table cap
    for n, d in ((6, 3), (10, 3), (10, 5), (12, 6), (14, 7), (16, 8), (18, 9), (20, 10), (22, 11)):
        rep = check_block_pair(_block_pair(n, d))
        assert rep.verdict == NOT_BENT
        assert rep.witness_u0 is None
        assert rep.detail.startswith("direct spectral verification"), (n, d)


def test_block_pair_past_the_table_cap_declines_without_a_table():
    tracemalloc.start()
    try:
        rep = check_block_pair(_block_pair(24, 12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.verdict == INCONCLUSIVE and rep.detail.startswith("witness did not verify")
    # the witness check's table on the 22 bits of u0 peaks at 9.1 MiB; a
    # 2^24-entry truth table alone would take 16 MiB
    assert peak < 16 << 20


def test_block_pair_with_witness():
    rep = check_block_pair(parse_sanf("x1x2x3+x1x2x4", 12))
    assert rep.verdict == NOT_BENT
    assert rep.witness_u0 == 0b000111111111
    assert rep.witness_k == 3
    rep = check_block_pair(parse_sanf("x1x2x3x4+x1x2x3x5", 10))
    assert rep.verdict == NOT_BENT
    assert rep.witness_k == 2


def test_block_pair_shape_gates():
    assert check_block_pair(parse_sanf("x1x2+x1x3", 8)).verdict == INCONCLUSIVE
    assert check_block_pair(parse_sanf("x1x2x3", 8)).verdict == INCONCLUSIVE


def test_sparse_triple_params():
    # (n1, n2, n0, span, q, r)
    assert nonexistence._triple_params(parse_sanf("x1x3x5", 16)) == (1, 1, 1, 5, 2, 2)
    assert nonexistence._triple_params(parse_sanf("x1x2x3", 12)) == (0, 0, 0, 3, 3, 2)
    assert nonexistence._triple_params(parse_sanf("x1x2x3+x1x2x4", 10)) is None


def test_sparse_triple():
    rep = check_sparse_triple(parse_sanf("x1x2x3", 12))
    assert rep.verdict == NOT_BENT
    assert rep.witness_u0 == (1 << 9) - 1
    assert rep.witness_k == 3
    assert rep.claimed_valuation == 3
    rep = check_sparse_triple(parse_sanf("x1x3x5", 16))
    assert rep.verdict == NOT_BENT
    assert rep.witness_u0 == (1 << 12) - 1
    assert rep.claimed_valuation == 4
    rep = check_sparse_triple(parse_sanf("x1x2x4", 10))
    assert rep.verdict == INCONCLUSIVE
    assert rep.detail.startswith("bound not met")
    assert rep.detail.endswith("with n1=0 n2=1 n0=1 span=4 q=1 r=4")


def test_gap_bounds_single_block():
    rep = check_gap_bounds(parse_sanf("x1x2x3", 8))
    assert rep.verdict == NOT_BENT
    assert rep.rule == "gap-bounds(i)"


def test_gap_bounds_side_condition_rendering():
    rep = check_gap_bounds(parse_sanf("x1x2x3+x1x2x4", 10))
    assert rep.verdict == INCONCLUSIVE
    assert "evaluates 2 > 3, false" in rep.detail


def test_gap_bounds_block_pair_fires_when_side_holds():
    rep = check_gap_bounds(parse_sanf("x1x2x3x4x5+x1x2x3x4x6", 14))
    assert rep.verdict == NOT_BENT
    assert rep.rule == "gap-bounds(ii)"
    assert "evaluates 3 > 2, true" in rep.detail


def test_gap_bounds_side_condition_needs_no_sharper_form():
    # the n/4 form once used for n = 1 mod d differs from (n-2)/4 only at
    # inputs the gate settles first: d = 5 with n = 6 (degree bound), and odd n
    differ = [
        (n, d)
        for n in range(6, 201, 2)
        for d in range(3, n + 1)
        if n % d == 1 and (n > 4 * (n // d)) != (n - 2 > 4 * (n // d))
    ]
    assert differ == [(6, 5)]
    assert check_gap_bounds(parse_sanf("x1x2x3x4x5", 6)).rule == "degree-bound"
    # where the rule runs (even n up to the Sanf cap of 30), (ii) fires
    # exactly where the side condition holds
    for n in range(6, 31, 2):
        for d in range(3, n // 2 + 1):
            if n % d == 1:
                rep = check_gap_bounds(sanf_from_masks(nonexistence._block_and_pair(d), n))
                assert (rep.rule == "gap-bounds(ii)") == (n - 2 > 4 * (n // d)), (n, d)


def test_gap_bounds_small_gap():
    sanf = parse_sanf("x1x2x3x4x6", 16)
    rep = check_gap_bounds(sanf)
    assert rep.verdict == NOT_BENT
    assert rep.rule == "gap-bounds(iii)"
    assert "max gap 2 < (n/2-1)/floor(n/d) = 7/3" in rep.detail
    # Independent confirmation that the bound is telling the truth here.
    assert not is_bent(sanf_truth_table(sanf))


def test_gap_bounds_needs_degree_three():
    assert check_gap_bounds(parse_sanf("x1x2", 8)).verdict == INCONCLUSIVE
    # mixed degree declines the same way, whichever rule is asked
    _assert_every_rule_needs_degree_three(parse_sanf("x1x2+x1x2x3", 8))


def test_max_index_gap():
    gap = nonexistence._max_index_gap
    assert gap(parse_sanf("x1x2x3", 6)) == 1
    assert gap(parse_sanf("x1x2x5", 6)) == 3
    assert gap(parse_sanf("x1x4+x1x2", 6)) == 3
    for n in (6, 8, 10):
        for rep_mask in enumerate_orbit_reps(n, 3):
            assert gap(sanf_from_masks([rep_mask], n)) <= n - 1


def test_verify_witness():
    sanf = parse_sanf("x1x2x3", 8)
    rep = check_shift_chain(sanf)
    assert verify_witness(sanf, rep)
    tampered = dataclasses.replace(rep, claimed_valuation=rep.claimed_valuation + 1)
    assert not verify_witness(sanf, tampered)
    with pytest.raises(ValueError):
        verify_witness(sanf, check_gap_bounds(sanf))  # no witness carried
    with pytest.raises(ValueError):
        verify_witness(sanf, dataclasses.replace(rep, witness_u0=(1 << 8) - 1))


def test_cover_routes_that_disagree_are_exit_3(monkeypatch, capsys):
    # verify_witness reads H(u0) from the monomials and from the spectrum; a
    # spectrum route that answers differently stops the command with exit 3
    sanf = parse_sanf("x1x2x3", 8)
    rep = check_shift_chain(sanf)
    real = nonexistence.cover_coefficient_from_spectrum

    def off_by_two(spectrum, u):
        return CoverValue(real(spectrum, u).value + 2, 1)

    monkeypatch.setattr(nonexistence, "cover_coefficient_from_spectrum", off_by_two)
    with pytest.raises(InternalInconsistencyError, match="cover routes disagree at u0"):
        verify_witness(sanf, rep)
    assert main(["nonexist", "-n", "8", "x1x2x3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("inconsistency: cover routes disagree at u0: ")


def test_witness_valuation_is_independently_small():
    # Each carried witness u0 must have a cover coefficient whose valuation
    # equals the claim and sits at or below |u0| - n/2, recomputed from
    # scratch through the monomial route.
    cases = [
        check_shift_chain(parse_sanf("x1x2x3", 8)),
        check_leading_block(parse_sanf("x1x2x3", 6)),
        check_leading_block(parse_sanf("x1x2x3+x1x3x5", 10)),
        check_block_pair(parse_sanf("x1x2x3+x1x2x4", 12)),
        check_sparse_triple(parse_sanf("x1x2x3", 12)),
    ]
    sanfs = [
        parse_sanf("x1x2x3", 8),
        parse_sanf("x1x2x3", 6),
        parse_sanf("x1x2x3+x1x3x5", 10),
        parse_sanf("x1x2x3+x1x2x4", 12),
        parse_sanf("x1x2x3", 12),
    ]
    for sanf, rep in zip(sanfs, cases):
        monos = sorted(orbit_expand(sanf).monomials)
        cv = cover_coefficient(monos, rep.witness_u0)
        assert cv.valuation == rep.claimed_valuation
        assert cv.valuation <= rep.witness_u0.bit_count() - sanf.n // 2


def test_witness_checks_share_one_spectrum(monkeypatch, capsys):
    # x1x2x3 on 12 variables: three rules verify a witness, one spectrum is built
    spectra, witnesses = [], []
    real_spectrum, real_verify = nonexistence.walsh_spectrum, nonexistence.verify_witness

    def counting_spectrum(tt):
        spectra.append(tt.n)
        return real_spectrum(tt)

    def counting_verify(sanf, report):
        witnesses.append(report.rule)
        return real_verify(sanf, report)

    monkeypatch.setattr(nonexistence, "walsh_spectrum", counting_spectrum)
    monkeypatch.setattr(nonexistence, "verify_witness", counting_verify)
    argv = ["nonexist", "-n", "12", "x1x2x3", "--format", "json"]
    assert main(argv) == 0
    together = json.loads(capsys.readouterr().out)["reports"]
    assert spectra == [12]
    assert {"shift-chain", "leading-block", "sparse-triple"} <= set(witnesses)
    for name, _ in nonexistence.RULES:
        main(argv + ["--rule", name])
        assert json.loads(capsys.readouterr().out)["reports"] == {name: together[name]}


@pytest.mark.parametrize("n", [16, 18])
def test_witnesses_past_the_direct_cap_are_checked_by_both_routes(n, monkeypatch):
    # x1x2x3+x1x2x4 expands to 2n > 24 monomials, past the subset walk's
    # cap: `cover_coefficient` still gives the monomial-side value by the lattice
    calls = {"monomial": 0, "spectrum": 0, "witness": 0}

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        return wrapped

    for name, attr in [
        ("monomial", "cover_coefficient"),
        ("spectrum", "cover_coefficient_from_spectrum"),
        ("witness", "verify_witness"),
    ]:
        monkeypatch.setattr(nonexistence, attr, counting(name, getattr(nonexistence, attr)))
    sanf = parse_sanf("x1x2x3+x1x2x4", n)
    assert len(orbit_expand(sanf).monomials) > 24
    reports = dict(all_checks(sanf))
    assert reports["block-pair"].verdict == NOT_BENT
    assert calls["witness"] >= 1
    assert calls["monomial"] == calls["spectrum"] == calls["witness"]


def test_weight_21_witness_at_n22_is_released_and_matches_the_spectrum():
    # x1x2x3+x1x3x8 expands to 44 monomials; its chain witness has |u0| = 21,
    # one table of 2^21 entries, and the spectrum gives the same H(u0)
    sanf = parse_sanf("x1x2x3+x1x3x8", 22)
    reports = dict(all_checks(sanf))
    u0 = (1 << 21) - 1
    for name in ("shift-chain", "leading-block"):
        rep = reports[name]
        assert (rep.verdict, rep.witness_u0, rep.claimed_valuation) == (NOT_BENT, u0, 7)
    tt = sanf_truth_table(sanf)
    assert not is_bent(tt)
    assert cover_coefficient_from_spectrum(walsh_spectrum(tt), u0) == CoverValue(-384, 7)


def test_every_released_witness_recomputes_past_twenty_variables():
    # every single degree-3 orbit and the first 60 orbit pairs at n = 22 and
    # 24: a NOT_BENT witness is released only after verify_witness, and one
    # beyond numeric reach declines
    for n in (22, 24):
        reps = enumerate_orbit_reps(n, 3)
        pairs = itertools.islice(itertools.combinations(reps, 2), 60)
        for chosen in [(r,) for r in reps] + list(pairs):
            sanf = sanf_from_masks(chosen, n)
            for name, rep in all_checks(sanf):
                assert "verified" not in rep.as_dict(), (name, sanf)
                if rep.verdict == NOT_BENT and rep.witness_u0 is not None:
                    assert verify_witness(sanf, rep), (name, sanf)


def test_all_checks_order_and_shape():
    results = all_checks(parse_sanf("x1x2x3", 8))
    assert [name for name, _ in results] == [
        "shift-chain",
        "leading-block",
        "block-pair",
        "sparse-triple",
        "gap-bounds",
    ]
    for _, rep in results:
        assert rep.verdict in (NOT_BENT, INCONCLUSIVE)


def test_report_serialization():
    rep = check_shift_chain(parse_sanf("x1x2x3", 8))
    d = rep.as_dict()
    assert d["witness_u0"] == "11111100"
    assert d["witness_k"] == 2 and d["claimed_valuation"] == 2
    assert rep.text().startswith("NOT_BENT rule=shift-chain u0=11111100 k=2 v2=2")
    blank = check_gap_bounds(parse_sanf("x1x2x3+x1x2x4", 10))
    assert blank.as_dict()["witness_u0"] is None
    assert blank.text().startswith("INCONCLUSIVE rule=gap-bounds")


def test_rules_are_sound_on_small_degree3_spaces():
    # No rule may reject a function that the Walsh criterion accepts, and
    # every carried witness must re-verify.  Covers all homogeneous
    # degree-3 SANFs on six and eight variables.
    for n in (6, 8):
        reps = enumerate_orbit_reps(n, 3)
        for size in range(1, len(reps) + 1):
            for chosen in itertools.combinations(reps, size):
                sanf = sanf_from_masks(chosen, n)
                bent = is_bent(sanf_truth_table(sanf))
                for name, rep in all_checks(sanf):
                    if rep.verdict == NOT_BENT:
                        assert not bent, (name, sanf)
                    if rep.witness_u0 is not None:
                        assert verify_witness(sanf, rep), (name, sanf)
