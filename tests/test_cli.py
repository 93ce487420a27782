import json

from click.testing import CliRunner

from qschur.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_expand_qs_json():
    result = run("expand", "--kind", "qs", "--composition", "1,3", "--format", "json")
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj == {
        "basis": "F",
        "degree": 4,
        "terms": [
            {"index": [1, 3], "coefficient": 1},
            {"index": [2, 2], "coefficient": 1},
        ],
    }


def test_expand_text_and_m_basis():
    result = run("expand", "--kind", "schur", "--partition", "2,1")
    assert result.exit_code == 0
    assert result.output == "1 · F[1,2]\n1 · F[2,1]\n"
    result = run("expand", "--kind", "qs", "--composition", "1,3", "--basis", "m")
    assert result.exit_code == 0
    assert "M[1,1,1,1]" in result.output


def test_expand_skew_schur_basis():
    result = run(
        "expand", "--kind", "skew", "--outer", "3,2", "--inner", "2",
        "--basis", "schur", "--format", "json",
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["basis"] == "schur"
    assert obj["terms"] == [
        {"index": [2, 1], "coefficient": 1},
        {"index": [3], "coefficient": 1},
    ]
    result = run("expand", "--kind", "qs", "--composition", "2", "--basis", "schur")
    assert result.exit_code == 2


def test_expand_help_lists_index_flags_after_kind():
    result = run("expand", "--help")
    assert result.exit_code == 0
    lines = result.output.split("Options:\n")[1].splitlines()
    assert [line.split()[0] for line in lines] == [
        "--kind", "--composition", "--partition", "--outer", "--inner",
        "--basis", "--format", "--budget", "--help",
    ]


def test_check_exit_codes():
    result = run("check", "--kind", "schur", "--partition", "3,2,1")
    assert result.exit_code == 1
    assert "fmf: false" in result.output
    result = run("check", "--kind", "qs", "--composition", "1,3")
    assert result.exit_code == 0
    assert "fmf: true" in result.output
    assert "components: 2" in result.output


def test_tableaux_stream():
    result = run("tableaux", "--kind", "qs", "--composition", "1,3")
    assert result.exit_code == 0
    assert result.output == "1\n4 3 2\n\n2\n4 3 1\n"
    result = run(
        "tableaux", "--kind", "skew", "--outer", "2,1", "--inner", "1",
        "--format", "json",
    )
    assert result.exit_code == 0
    assert json.loads(result.output) == [[[None, 1], [2]], [[None, 2], [1]]]


def test_witnesses_exit_codes():
    result = run("witnesses", "--kind", "qs", "--composition", "1,3")
    assert result.exit_code == 0
    assert "no repeated descent sets" in result.output
    result = run("witnesses", "--kind", "schur", "--partition", "3,2,1", "--format", "json")
    assert result.exit_code == 1
    assert json.loads(result.output) == [
        {
            "degree": 6,
            "descents": [1, 3, 5],
            "first": [[1, 3, 5], [2, 4], [6]],
            "second": [[1, 3, 5], [2, 6], [4]],
        },
        {
            "degree": 6,
            "descents": [2, 4],
            "first": [[1, 2, 4], [3, 6], [5]],
            "second": [[1, 2, 6], [3, 4], [5]],
        },
    ]


def test_verify_command():
    result = run("verify", "--theorem", "two-part", "--max-n", "12")
    assert result.exit_code == 0
    assert "disagreements: 0" in result.output
    assert "verdict: verified" in result.output


def test_verify_json_roundtrip():
    result = run(
        "verify", "--theorem", "schur", "--max-n", "6", "--format", "json"
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert json.dumps(obj, indent=2) + "\n" == result.output


def test_identical_invocations_are_byte_identical():
    args = ("expand", "--kind", "skew", "--outer", "4,3,1", "--format", "json")
    assert run(*args).output == run(*args).output


def test_usage_errors_exit_2():
    assert run("expand", "--kind", "qs", "--composition", "1,x").exit_code == 2
    assert run("expand", "--kind", "qs", "--composition", "0,1").exit_code == 2
    assert run("expand", "--kind", "qs").exit_code == 2
    # The library checks the parts, and its message names the flag.
    for args, message in (
        (("--kind", "schur", "--partition", "1,2"), "partition is not weakly decreasing"),
        (("--kind", "skew", "--outer", "2,0"), "outer has a part < 1"),
        (("--kind", "qs", "--composition", "0,1"), "not a composition: (0, 1)"),
    ):
        result = run("expand", *args)
        assert result.exit_code == 2
        assert message in result.output
    assert run("expand", "--kind", "skew", "--outer", "2,1", "--inner", "3").exit_code == 2
    assert run("verify", "--theorem", "schur", "--max-n", "0").exit_code == 2
    assert run("verify", "--theorem", "schur", "--max-n", "4", "--threads", "2").exit_code == 2
    for budget in ("0", "-1"):
        assert run(
            "check", "--kind", "qs", "--composition", "2,2", "--budget", budget
        ).exit_code == 2
    assert run("verify", "--theorem", "schur", "--max-n", "4", "--budget", "-1").exit_code == 2
    # An index flag that --kind does not read is named, not ignored.
    for args, flag in (
        (("--kind", "schur", "--partition", "3,2", "--inner", "1"), "--inner"),
        (("--kind", "qs", "--composition", "1,3", "--outer", "5"), "--outer"),
    ):
        result = run("check", *args)
        assert result.exit_code == 2
        assert f"{flag} does not apply to --kind" in result.output


def test_budget_exit_3():
    result = run(
        "tableaux", "--kind", "schur", "--partition", "3,2,1", "--budget", "2"
    )
    assert result.exit_code == 3
    assert "tableaux of shape 3,2,1 exceeded the tableau budget of 2" in result.output
    result = run(
        "tableaux", "--kind", "qs", "--composition", "2,2,2", "--budget", "3"
    )
    assert result.exit_code == 3
    message = "composition tableaux of shape (2, 2, 2) exceeded the tableau budget of 3"
    assert message in result.output
    result = run(
        "check", "--kind", "qs", "--composition", "2,2,2", "--budget", "1"
    )
    assert result.exit_code == 3
    # Aborts on a small remaining shape, before the 2^38-mask profile.
    result = run("expand", "--kind", "skew", "--outer", "20,19", "--budget", "10")
    assert result.exit_code == 3
    # One tableau but 2^15 M-terms: the budget caps the M-expansion too.
    args = ("expand", "--kind", "qs", "--composition", "16", "--basis", "m")
    result = run(*args, "--budget", "1000")
    assert result.exit_code == 3
    assert "M-terms of degree 16 exceeded the tableau budget of 1000" in result.output
    assert run(*args, "--budget", str(2**15), "--format", "json").exit_code == 0
    # (2,1)/(1) has two lattice fillings, so the Schur basis passes at 2.
    args = ("expand", "--kind", "skew", "--outer", "2,1", "--inner", "1")
    args += ("--basis", "schur")
    assert run(*args, "--budget", "2").exit_code == 0
    result = run(*args, "--budget", "1")
    assert result.exit_code == 3
    message = "lattice fillings of shape 2,1/1 exceeded the tableau budget of 1"
    assert message in result.output
    # (3,2,1) has 16 tableaux: the witness search passes at 16, not at 15.
    args = ("witnesses", "--kind", "schur", "--partition", "3,2,1")
    assert run(*args, "--budget", "16").exit_code == 1
    result = run(*args, "--budget", "15")
    assert result.exit_code == 3
    assert "tableaux of shape 3,2,1 exceeded the tableau budget of 15" in result.output
    # verify names the first instance over the budget in instance order,
    # although each degree's truth is built before its instances are read.
    # Every instance whose truth is read off a clean or narrow profile meets
    # the budget: 3,3,3/2,1 is (3,2,1) rotated, clean but not
    # multiplicity-free.
    for theorem, max_n, budget, shape in [
        ("skew", 8, 30, "tableaux of shape 4,1,1,1,1/1"),
        ("skew", 8, 10, "tableaux of shape 2,2,1,1,1/1"),
        ("schur", 13, 100, "tableaux of shape 5,5,5,5,5,5/4,4,4,4,4"),
        ("schur", 13, 12, "tableaux of shape 3,3,3/2,1"),
        ("qs-components", 11, 1, "composition tableaux of shape (1, 3)"),
    ]:
        args = ("verify", "--theorem", theorem, "--max-n", str(max_n))
        result = run(*args, "--budget", str(budget), "--format", "json")
        assert result.exit_code == 3
        assert f"{shape} exceeded the tableau budget of {budget}" in result.output
