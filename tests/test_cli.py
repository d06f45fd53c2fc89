import json
import os
import subprocess
import sys
from pathlib import Path

import weylg.cli
from weylg.cellexpr import SymbolTable, parse_chain
from weylg.cells import boundary
from weylg.cli import _print_report, run
from weylg.errors import Report
from weylg.groups import parse_group

SRC = Path(__file__).resolve().parents[1] / "src"


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quiddity_command(capsys):
    code, out, _ = run_capture(capsys, ["quiddity", "--example", "zeta11"])
    assert code == 0
    assert out.strip() == "3 1 2 3 2 1 3"


def test_cartan_text_and_json(capsys):
    code, out, _ = run_capture(capsys, ["cartan", "--example", "zeta11"])
    assert code == 0
    assert "2 -3" in out.replace("  ", " ")
    code, out, _ = run_capture(
        capsys, ["cartan", "--example", "zeta3", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cartan"] == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_cartan_diagnostics_table(capsys):
    code, out, _ = run_capture(
        capsys,
        ["cartan", "--example", "zeta11", "--diagnostics", "0:3"],
    )
    assert code == 0
    assert "mu^13 (mod 22)" in out
    assert "mu^11 (mod 22)" in out


def test_boundary_expression(capsys):
    code, out, _ = run_capture(
        capsys, ["complex", "boundary", "--expr", "[a|b]"]
    )
    assert code == 0
    assert out.strip() == "[a,b] - [b,a]"


def test_boundary_over_a_named_group(capsys):
    code, out, _ = run_capture(capsys, [
        "complex", "boundary", "--expr", "[(1,0)|(1,0)]", "--group", "Z/2xZ/3",
    ])
    assert (code, out) == (0, "0\n")
    code, out, _ = run_capture(capsys, [
        "complex", "boundary", "--expr", "[(1,0),(0,1)|(1,1)]",
        "--group", "Z/2xZ/3",
    ])
    assert code == 0
    assert out == (
        "[(0,1)|(1,1)] - [(1,0),(0,1),(1,1)] + [(1,0),(1,1),(0,1)]"
        " + [(1,0)|(1,1)] - [(1,1),(1,0),(0,1)] - [(1,1)|(1,1)]\n"
    )
    # without --group the letters name free coordinates, so a vector
    # must have one coordinate per letter
    code, _, err = run_capture(
        capsys, ["complex", "boundary", "--expr", "[(1,0)|(1,0)]"]
    )
    assert code == 2
    assert err == "error: element needs 1 coordinates, got 2\n"
    code, _, err = run_capture(capsys, [
        "complex", "boundary", "--expr", "[a|b]", "--group", "Z/2",
    ])
    assert code == 2
    assert err == "error: unknown symbol 'a'\n"


def test_frieze_quiddity(capsys):
    code, out, _ = run_capture(
        capsys, ["frieze", "--quiddity", "1,4,1,2,2,2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 1 1 3 2 1 0"
    assert lines[1] == "  0 1 4 3 2 1 0"


def test_typed_non_quiddity_cycles_are_refused(capsys):
    # the frieze of 1,1,1,1, 0,0 or 1,1 was printed before the check;
    # triangulate refused them with its ear-cutting messages
    cases = {
        "1,1,1,1": "cycle (1, 1, 1, 1) sums to 4, not 3N - 6 = 6",
        "0,0": "cycle (0, 0) has 2 entries, fewer than 3",
        "1,1": "cycle (1, 1) has 2 entries, fewer than 3",
        "2,2,1,1": "cycle (2, 2, 1, 1) gives eta-product "
                   "[[-2, -1], [-1, -1]], not -I",
    }
    for text, message in cases.items():
        for command in ("frieze", "triangulate"):
            code, out, err = run_capture(capsys, [command, "--quiddity", text])
            assert (code, out, err) == (2, "", f"error: {message}\n"), (
                command, text
            )


def test_malformed_tensors_are_typed_refusals(capsys, tmp_path):
    boolean = tmp_path / "boolean.json"
    boolean.write_text(json.dumps(
        {"modulus": 5, "degree": 2, "rank2_profile": [True, 1, 0]}
    ))
    oversized = tmp_path / "oversized.json"
    oversized.write_text(json.dumps(
        {"modulus": 3, "degree": 70, "rank": 2, "sqrt_entries": []}
    ))
    cases = (
        (boolean, "rank2_profile: expected a list of integers"),
        (oversized,
         "a tensor of rank 2 and degree 70 has more than 1048576 entries"),
    )
    for path, message in cases:
        code, out, err = run_capture(capsys, ["cartan", "--tensor", str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_triangulate_json(capsys):
    code, out, _ = run_capture(
        capsys,
        ["triangulate", "--quiddity", "3,1,2,3,2,1,3", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 7
    assert len(doc["diagonals"]) == 4


def test_orbit_and_roots(capsys):
    code, out, _ = run_capture(
        capsys, ["orbit", "--example", "zeta7", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["objects"]) == 10
    assert doc["axioms_ok"]
    code, out, _ = run_capture(capsys, ["roots", "--example", "a2"])
    assert code == 0
    assert "root axioms: pass" in out


def test_dynkin_dot(capsys):
    code, out, _ = run_capture(capsys, ["dynkin", "--example", "zeta3"])
    assert code == 0
    assert out.startswith("graph dynkin {")
    assert 'v1 -- v2 [label="mu^4 (mod 12)"];' in out


def test_verify_commands(capsys):
    code, out, _ = run_capture(
        capsys, ["verify", "recursion", "--degree", "3", "--m-max", "2"]
    )
    assert code == 0
    assert "ok   d=3 m=2 recursion step" in out
    code, out, _ = run_capture(
        capsys, ["verify", "divisibility", "--degree", "2", "--m-max", "2"]
    )
    assert code == 0
    assert "g_0 = r_0" in out


def test_complex_reports(capsys):
    code, out, _ = run_capture(capsys, ["complex", "verify-table"])
    assert code == 0
    assert "boundary of [a||||b]" in out
    code, out, _ = run_capture(capsys, ["complex", "witnesses"])
    assert code == 0
    assert "inverse rule" in out


def test_symcycle(capsys):
    code, out, _ = run_capture(
        capsys,
        ["complex", "symcycle", "--lambda", "2,2", "--args", "a;b"],
    )
    assert code == 0
    assert out.strip() == (
        "[a|a|b|b] + [a|b|a|b] + [a|b|b|a]"
        " + [b|a|a|b] + [b|a|b|a] + [b|b|a|a]"
    )


def test_symcycle_over_a_named_group(capsys):
    code, out, _ = run_capture(capsys, [
        "complex", "symcycle", "--lambda", "1,1", "--args", "(1,0);(0,1)",
        "--group", "Z/2xZ/2",
    ])
    assert (code, out) == (0, "[(0,1)|(1,0)] + [(1,0)|(0,1)]\n")
    # without --group the letters name free coordinates
    code, _, err = run_capture(capsys, [
        "complex", "symcycle", "--lambda", "1,1", "--args", "(1,0);(0,1)",
    ])
    assert code == 2
    assert err == "error: element needs 1 coordinates, got 2\n"
    code, _, err = run_capture(capsys, [
        "complex", "symcycle", "--lambda", "1,1", "--args", "a;b",
        "--group", "Z/2",
    ])
    assert code == 2
    assert err == "error: unknown symbol 'a'\n"


def test_membership_and_homology(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "complex", "membership",
            "--expr", "[(1)|(1)] - [(2)|(2)]",
            "--group", "Z/3", "--level", "1",
        ],
    )
    assert code == 0
    assert "is boundary: yes" in out
    code, out, _ = run_capture(
        capsys,
        ["complex", "homology", "--group", "Z/2", "--level", "1",
         "--degree", "3"],
    )
    assert code == 0
    assert out.strip() == "H^1_3(Z/2) = Z/4"


# the queries of the two membership-witness digest steps in CI
WITNESS_QUERIES = [
    ("[(1)|(1)] - 4*[(2)|(2)]", "Z/5", "1", "json", True),
    ("[(1)|(1)] - [(3)|(3)]", "Z/4", "1", "json", True),
    ("[(1)|(1)] - [(1)|(2)] - [(2)|(1)] + [(2)|(2)]", "Z/3", "1", "text",
     False),
    ("2*[(1,0)|(1,0)]", "Z/2xZ/2", "2", "json", True),
    ("2*[(1,0)|(1,0)|(1,0)]", "Z/2xZ/2", "2", "json", True),
]


def test_digested_membership_witnesses_bound_their_queries(capsys):
    for expr, group, level, form, member in WITNESS_QUERIES:
        code, out, _ = run_capture(
            capsys,
            ["complex", "membership", "--expr", expr, "--group", group,
             "--level", level, "--format", form],
        )
        assert code == 0, expr
        if form == "json":
            answer = json.loads(out)
            ok, witness = answer["is_boundary"], answer["witness"]
        else:
            lines = out.splitlines()
            ok = lines[0] == "is boundary: yes"
            witness = lines[1].removeprefix("witness: ") if ok else None
        assert ok == member, expr
        if ok:
            table = SymbolTable(parse_group(group))
            chain = parse_chain(expr, table)
            assert boundary(parse_chain(witness, table)) == chain, expr
        else:
            assert witness is None, expr


def test_complex_output_independent_of_hash_seed():
    commands = [
        ["complex", "membership", "--expr", "[(1)|(1)] - [(2)|(2)]",
         "--group", "Z/3", "--level", "1", "--format", "json"],
        ["complex", "homology", "--group", "Z/2xZ/2", "--level", "1",
         "--degree", "3", "--format", "json"],
    ]
    for argv in commands:
        outputs = set()
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC), env.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-m", "weylg.cli", "--seed", "7", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv


def test_closed_stdout_exits_141_quietly():
    # a pipe whose read end is closed before the command starts, so the
    # first write fails as it does under `weylg ... | head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "weylg.cli", "orbit", "--example", "a2",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 141


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run_capture(capsys, ["cartan", "--tensor", "/nope.json"])
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"modulus": 5, "degree": 2}')
    code, _, err = run_capture(capsys, ["cartan", "--tensor", str(bad)])
    assert code == 2 and "rank" in err
    # undefined Cartan entry within a tiny search bound
    code, _, err = run_capture(
        capsys,
        ["cartan", "--example", "zeta11", "--m-max", "1"],
    )
    assert code == 2 and "Cartan" in err
    # malformed integer lists name their flag
    for argv, flag in [
        (["cartan", "--example", "zeta11", "--diagnostics", "x"], "--diagnostics"),
        (["cartan", "--example", "zeta11", "--diagnostics", "1:2:3"],
         "--diagnostics"),
        (["frieze", "--quiddity", "1,a"], "--quiddity"),
        (["complex", "symcycle", "--lambda", "2,x", "--args", "a;b"], "--lambda"),
    ]:
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == "" and err.startswith(f"error: {flag}: ")
    code, _, err = run_capture(
        capsys, ["cartan", "--example", "zeta11", "--pair", "1", "5"]
    )
    assert code == 2 and "pair (1, 5) out of range 1..2" in err
    # negative closure bounds are invalid, not exceeded
    for argv, message in [
        (["roots", "--example", "zeta3", "--depth-max", "-1"],
         "depth_max must be >= 0, got -1"),
        (["orbit", "--example", "zeta11", "--max-objects", "-1"],
         "max_objects must be >= 0, got -1"),
    ]:
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"


def test_reversed_diagnostics_range_is_a_schema_error(capsys):
    for bounds in ("3:1", "-1", "-2:1"):
        code, out, err = run_capture(
            capsys, ["cartan", "--example", "zeta11", f"--diagnostics={bounds}"]
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: --diagnostics: expected 0 <= M0 <= M1, got {bounds!r}\n"
        )
    code, out, _ = run_capture(
        capsys, ["cartan", "--example", "zeta11", "--diagnostics", "1:1"]
    )
    assert code == 0
    assert out.endswith(
        "  m | chi(v) | chi(w) | chi(s)\n"
        "  1 | mu^4 (mod 22) | mu^4 (mod 22) | mu^13 (mod 22)\n"
    )


def test_negative_m_max_is_invalid_at_every_rank(capsys, tmp_path):
    rank1 = tmp_path / "rank1.json"
    rank1.write_text(json.dumps({
        "modulus": 7, "rank": 1, "degree": 2,
        "sqrt_entries": [{"index": [1, 1], "exp": 3}],
    }))
    for source in (["--tensor", str(rank1)], ["--example", "zeta11"]):
        for command in ("cartan", "orbit", "roots"):
            code, out, err = run_capture(
                capsys, [command, *source, "--m-max", "-3"]
            )
            assert code == 2 and out == ""
            assert err == "error: m_max must be >= 0\n"


def test_affine_walk_is_not_a_quiddity_cycle(capsys, tmp_path):
    affine = tmp_path / "affine.json"
    affine.write_text(json.dumps(
        {"modulus": 3, "degree": 4, "rank2_profile": [1, 2, 2, 0, 0]}
    ))
    for command in ("quiddity", "frieze", "triangulate"):
        code, out, err = run_capture(capsys, [command, "--tensor", str(affine)])
        assert code == 2 and out == ""
        assert err == (
            "error: period (2,) gives eta-product [[7, -6], [6, -5]], not -I\n"
        )


def test_max_objects_counts_the_start_object(capsys, tmp_path):
    trivial = tmp_path / "trivial.json"
    trivial.write_text(json.dumps({
        "modulus": 10, "rank": 2, "degree": 2,
        "sqrt_entries": [
            {"index": [1, 1], "exp": 3}, {"index": [2, 2], "exp": 7},
        ],
    }))
    code, out, err = run_capture(
        capsys, ["orbit", "--tensor", str(trivial), "--max-objects", "0"]
    )
    assert code == 2 and out == ""
    assert err == "error: closure exceeded 0 objects\n"
    code, out, _ = run_capture(
        capsys, ["orbit", "--tensor", str(trivial), "--max-objects", "1"]
    )
    assert code == 0 and out.startswith("objects: 1\n")


def test_degree_bound_error_names_the_degree_bound(capsys):
    code, out, err = run_capture(
        capsys,
        ["complex", "homology", "--group", "Z/2", "--level", "1",
         "--degree", "7"],
    )
    assert code == 2 and out == ""
    assert "degree 8 exceeds the degree bound 7" in err
    assert "H_n and the membership of a degree-n chain read cells of" in err
    assert "degrees n and n+1" in err
    assert "--degree-bound" in err
    assert "WEYL_MAX_CELLS" not in err
    code, out, _ = run_capture(
        capsys,
        ["complex", "homology", "--group", "Z/2", "--level", "0",
         "--degree", "7", "--degree-bound", "8"],
    )
    assert code == 0
    assert out.strip() == "H^0_7(Z/2) = Z/2"


def test_complex_bounds_and_negative_arguments_exit_2(capsys, monkeypatch):
    monkeypatch.delenv("WEYL_MAX_CELLS", raising=False)
    code, out, err = run_capture(
        capsys,
        ["complex", "homology", "--group", "Z/10", "--level", "0",
         "--degree", "4"],
    )
    assert code == 2 and out == ""
    assert err == "error: 59049 cells at degree 5 exceed WEYL_MAX_CELLS=50000\n"
    for argv, message in [
        (["complex", "homology", "--group", "Z/2", "--level", "-1",
          "--degree", "2"], "level must be >= 0, got -1"),
        (["complex", "membership", "--expr", "[(1)|(1)]", "--group", "Z/2",
          "--level", "-1"], "level must be >= 0, got -1"),
        (["complex", "homology", "--group", "Z/2", "--level", "0",
          "--degree", "-1"], "degree must be >= 0, got -1"),
        (["complex", "homology", "--group", "Z/2", "--level", "1",
          "--degree", "2", "--degree-bound", "-1"],
         "degree_bound must be >= 0, got -1"),
    ]:
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"


def test_malformed_cell_bound_is_invalid(capsys, monkeypatch):
    argv = ["complex", "homology", "--group", "Z/2", "--level", "1",
            "--degree", "2"]
    for raw in ("-1", "lots", "2.5"):
        monkeypatch.setenv("WEYL_MAX_CELLS", raw)
        code, out, err = run_capture(capsys, argv)
        assert code == 2 and out == ""
        assert err == (
            f"error: WEYL_MAX_CELLS={raw!r} is not a nonnegative integer\n"
        )
    monkeypatch.setenv("WEYL_MAX_CELLS", "0")
    code, out, err = run_capture(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: 1 cells at degree 2 exceed WEYL_MAX_CELLS=0\n"


def test_determinism_byte_for_byte(capsys):
    commands = [
        ["quiddity", "--example", "zeta7"],
        ["cartan", "--example", "zeta11", "--diagnostics", "0:3",
         "--format", "json"],
        ["orbit", "--example", "zeta3", "--format", "dot"],
        ["frieze", "--quiddity", "1,4,1,2,2,2"],
        ["complex", "boundary", "--expr", "[a,b|c]"],
        ["complex", "homology", "--group", "Z/3", "--level", "1",
         "--degree", "3", "--format", "json"],
    ]
    for argv in commands:
        first = run_capture(capsys, ["--seed", "1"] + argv)
        second = run_capture(capsys, ["--seed", "1"] + argv)
        assert first == second


def test_failing_reports_print_the_first_counterexample(capsys):
    report = Report()
    report.record("a", True, "matches the printed chain")
    report.record("b", False)
    report.record("c", False, "difference: 5*r0^2")
    report.checks.reverse()
    assert _print_report(report) == 1
    assert capsys.readouterr().out == (
        "FAIL c  (difference: 5*r0^2)\nFAIL b\nok   a  (matches the printed chain)\n"
    )


def test_failing_verify_prints_each_difference(capsys, monkeypatch):
    def one_failure(d, m_max):
        report = Report()
        report.record("d=3 m=0 base case", True)
        report.record("d=3 m=1 recursion step", False, "difference: 2*r0^2")
        return report

    monkeypatch.setattr(weylg.cli, "verify_recursion", one_failure)
    code, out, err = run_capture(capsys, ["verify", "recursion", "--degree", "3"])
    assert code == 1 and err == ""
    assert out == (
        "ok   d=3 m=0 base case\n"
        "FAIL d=3 m=1 recursion step  (difference: 2*r0^2)\n"
    )
    assert "counterexample:" not in out
