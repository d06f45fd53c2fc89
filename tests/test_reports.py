import weylg.reports
from weylg.cellexpr import SymbolTable, parse_chain, table_for
from weylg.cells import Chain, boundary
from weylg.groupoid import generate_cartan_graph, validate_axioms
from weylg.laurent import verify_classical_d2, verify_divisibility, verify_recursion
from weylg.reports import (
    Report,
    corollary_combination,
    corollary_witness,
    degenerate_correction,
    verify_corollary_witnesses,
    verify_lemma_witnesses,
    verify_table1,
)
from weylg.roots import real_roots, validate_root_axioms


class TestTable:
    def test_all_rows_verify(self):
        report = verify_table1()
        assert report.ok
        assert len(report.checks) == 32

    def test_two_rows_are_flagged(self):
        report = verify_table1()
        flagged = [l for l in report.checks if not l.printed_exact]
        assert len(flagged) == 2
        names = {l.name for l in flagged}
        assert names == {"boundary of [a|||b,c]", "boundary of [a||||b]"}
        assert all(l.note for l in flagged)

    def test_flagged_rule_follows_the_printed_degree(self, monkeypatch):
        # relabelled generators: the rule comes from the printed chain's
        # degree, not from which generator the row names
        rows = [
            ("[b|||a,c]", "[b|||c] - [b|||ac] + [b|||a] + [b||a,c] + [a,c||b]",
             "sign resolved"),
            ("[b|||a,c]", "[b|||c] - [b|||ac] + [b|||a] - [b||a,c] + [a,c||b]",
             "wrong sign"),
            ("[b||||a]", "-[b||||a] - [a||||b]", "degree-inconsistent"),
            ("[b||||a]", "-[b|||a] + [a|||b]", "wrong sign, right degree"),
        ]
        monkeypatch.setattr(weylg.reports, "TABLE_ROWS", rows)
        report = verify_table1()
        assert [c.ok for c in report.checks] == [True, False, True, False]
        assert [c.note for c in report.checks] == [r[2] for r in rows]
        assert not any(c.printed_exact for c in report.checks)

    def test_level_four_formula_value(self):
        table = table_for("[a|||b]")
        computed = boundary(parse_chain("[a||||b]", table))
        expected = parse_chain("-[a|||b] - [b|||a]", table)
        assert computed == expected


class TestWitnesses:
    def test_all_witnesses_verify(self):
        report = verify_lemma_witnesses()
        assert report.ok
        assert len(report.checks) == 9

    def test_product_rules_exact_inverse_rules_repaired(self):
        report = verify_lemma_witnesses()
        exact = [l for l in report.checks if l.printed_exact]
        repaired = [l for l in report.checks if not l.printed_exact]
        assert len(exact) == 6
        assert len(repaired) == 3
        assert all("inverse rule" in l.name for l in repaired)
        assert all("degenerate correction" in l.note for l in repaired)


class TestCorollaries:
    def test_derived_witnesses_are_exact(self):
        report = verify_corollary_witnesses()
        assert report.ok
        assert len(report.checks) == 3

    def test_combination_and_witness_agree_on_fresh_symbols(self):
        table = SymbolTable.free("pqrs")
        from weylg.cellexpr import parse_element

        args = tuple(parse_element(n, table) for n in ("p", "q", "r"))
        combo = corollary_combination(0, args)
        witness = corollary_witness(0, table, ("p", "q", "r"))
        assert boundary(witness) == combo


class TestDegenerateCorrection:
    def test_zero_junk(self):
        assert degenerate_correction(Chain.zero()) == Chain.zero()

    def test_non_degenerate_junk_rejected(self):
        table = SymbolTable.free("a")
        chain = parse_chain("[a,a]", table)
        assert degenerate_correction(chain) is None


def test_report_failure_listing():
    report = Report()
    report.record("good", True)
    report.record("bad", False, "broken")
    assert not report.ok
    assert report.failures()[0].name == "bad"


def test_report_checks_are_tuples_with_the_name_first():
    report = Report()
    assert report.ok and report.counterexample == ""
    report.record("good", True, "fine")
    report.record("bad", False)
    assert report.checks[0] == ("good", True, "fine", True)
    assert [f[0] for f in report.failures()] == ["bad"]
    assert report.counterexample == "bad"


def test_every_producer_returns_the_one_report(a2):
    graph = generate_cartan_graph(a2)
    reports = [
        validate_axioms(graph),
        validate_root_axioms(graph, real_roots(graph)),
        verify_recursion(2, 2),
        verify_divisibility(2, 2),
        verify_classical_d2(2),
        verify_table1(),
        verify_lemma_witnesses(),
        verify_corollary_witnesses(),
    ]
    assert all(type(r) is Report and r.ok for r in reports)
