"""CLI surface: exit codes, output formats, spec resolution."""
import json

import pytest

from grasspack.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hook_command(capsys):
    code, out, _ = run(capsys, "hook", "[6,4,2]")
    assert code == 0
    assert "dimension 2673" in out


def test_hook_bad_partition(capsys):
    code, _, err = run(capsys, "hook", "banana")
    assert code == 2
    assert "error:" in err


def test_branch_command(capsys):
    code, out, _ = run(capsys, "branch", "[6,4,2]")
    assert code == 0
    assert "[5, 4, 2]  dimension 990" in out
    assert "sum to 2673" in out


def test_predict_command(capsys):
    code, out, _ = run(capsys, "predict", "2673", "990", "12")
    assert code == 0
    assert "680" in out


def test_predict_degenerate(capsys):
    code, _, err = run(capsys, "predict", "5", "5", "10")
    assert code == 2
    assert "error:" in err


def test_verify_young(capsys):
    code, out, _ = run(capsys, "verify", "--group", "S4", "--H", "stab3",
                       "--rep", "young:[3,1]", "--chars", "auto-min")
    assert code == 0
    assert "8/9" in out
    assert "certified: yes" in out


def test_verify_full_subset_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "--group", "S4", "--H", "stab3",
                       "--rep", "young:[3,1]", "--chars", "0,1,2")
    assert code == 2
    assert "full space" in err


def test_verify_bad_group(capsys):
    code, _, err = run(capsys, "verify", "--group", "Q8", "--H", "stab0",
                       "--rep", "dim:2", "--chars", "auto-min")
    assert code == 2
    assert "unrecognized group spec" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "S5", "--H", "stab4", "--rep", "young:[3,2]",
     "--chars", "-1"],
    ["verify", "--group", "S5", "--H", "stab4", "--rep", "young:[3,2]",
     "--chars", "99"],
    ["verify", "--group", "S5", "--H", "stab4", "--rep", "young:[3,2]",
     "--chars", "2,2"],
    ["table-pgl", "4"],
    ["verify", "--group", "file:/nonexistent", "--H", "stab0",
     "--rep", "dim:2"],
    ["--cap", "1000", "verify", "--group", "data:m12", "--H", "stab0",
     "--rep", "dim:11"],
], ids=["negative-char", "char-out-of-range", "repeated-char",
        "even-q", "missing-file", "over-cap"])
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_auto_all_sweeps(capsys):
    code, out, _ = run(capsys, "verify", "--group", "S6", "--H", "stab5",
                       "--rep", "young:[3,2,1]", "--chars", "auto-all")
    assert code == 0
    assert out.count("certified: yes") == 2      # m = 5 and m = 6
    assert "n=16 m=5" in out and "n=16 m=6" in out


def test_verify_projective_group_spec(capsys):
    code, out, _ = run(capsys, "verify", "--group", "PSL2:5", "--H", "stab0",
                       "--rep", "dim:4", "--chars", "auto-min")
    assert code == 0
    assert "n=4 m=2 N=6" in out


def test_table_sn_small(capsys):
    code, out, _ = run(capsys, "table-sn", "4")
    assert code == 0
    assert "reference (3,1) = 8/9: ok" in out


def test_table_sn_predict_only(capsys):
    code, out, _ = run(capsys, "table-sn", "12")
    assert code == 0
    assert "predicted" in out and "2673" in out


def test_table_sn_csv(capsys):
    code, out, _ = run(capsys, "--csv", "table-sn", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("points,family,n,m,N")
    assert any(line.startswith("4,symmetric,3,1,4,8/9") for line in lines)


def test_table_pgl_json(capsys):
    code, out, _ = run(capsys, "--json", "table-pgl", "5")
    assert code == 0
    blocks = json.loads(out)
    assert blocks[0]["q"] == 5
    assert all(c["matched"] or not c["available"]
               for c in blocks[0]["checks"])


def test_clifford_reports(capsys):
    code, out, _ = run(capsys, "clifford", "2")
    assert code == 0
    assert "N=18" in out
    assert "bound attained: yes" in out


def test_clifford_small_case_applicability(capsys):
    code, out, _ = run(capsys, "clifford", "1")
    assert code == 0
    assert "ambient 2" in out
    assert "N > n(n+1)/2 = 3: yes" in out


def test_clifford_no_claim_for_wide_blocks(capsys):
    code, out, _ = run(capsys, "clifford", "2", "--r", "2")
    assert code == 0
    assert "no optimality claim" in out


def test_clifford_out_of_range(capsys):
    code, _, err = run(capsys, "clifford", "9")
    assert code == 2
    assert "error:" in err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "6/6 checks passed" in out
    assert "FAIL" not in out


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "hook.json"
    code, out, _ = run(capsys, "--json", "--out", str(target),
                       "hook", "[3,2,1]")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dimension"] == 16


def test_json_csv_conflict():
    with pytest.raises(SystemExit) as exc:
        main(["--json", "--csv", "hook", "[2,1]"])
    assert exc.value.code == 2


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
