"""CLI surface: exit codes, output formats, spec resolution."""
import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grasspack import cli, codes, config, permgroup
from grasspack.catalog import CatalogError, projective_entries
from grasspack.characters import CharacterError, character_table
from grasspack.cli import CliError, main
from grasspack.codes import CodeError, IdentityError, IsotypicContext
from grasspack.config import GrasspackError
from grasspack.grassmann import GrassmannError
from grasspack.permgroup import PermError, PermGroup, make_pgl2
from grasspack.reps import RepError
from grasspack.symplectic import SymplecticError


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


def test_verify_failed_character_identity_is_a_failed_certification(
        capsys, monkeypatch):
    # a residual above tolerance fails the certification (exit 1) and is
    # reported, never turned into a bad-input error (exit 2)
    def failing(self, chars, elem):
        raise IdentityError(0.25)
    monkeypatch.setattr(IsotypicContext, "fonda2_residual", failing)
    argv = ("verify", "--group", "S4", "--H", "stab3", "--rep", "young:[3,1]",
            "--chars", "auto-min")
    code, out, err = run(capsys, "--json", *argv)
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    assert results and all(r["certified"] is False for r in results)
    assert all(r["fonda_residual"] == 0.25 for r in results)
    code, out, err = run(capsys, *argv)
    assert code == 1 and err == ""
    assert "character-identity residual 2.50e-01 above 1e-06: failed" in out
    assert "certified: no" in out


def test_verify_json_reports_the_census_cross_check(capsys):
    code, out, _ = run(capsys, "--json", "verify", "--group", "S5",
                       "--H", "stab4", "--rep", "young:[3,1,1]",
                       "--chars", "auto-all")
    assert code == 0
    results = json.loads(out)["results"]
    assert results
    assert all(0 <= r["census_residual"] <= config.TOL.rel_distance
               for r in results)
    _, out, _ = run(capsys, "verify", "--group", "S5", "--H", "stab4",
                    "--rep", "young:[3,1,1]", "--chars", "auto-all")
    assert "census" not in out


def test_verify_json_reports_the_rep_and_its_provenance(capsys):
    # PSL2(7)'s 6-dimensional irreducible is extracted from the square of
    # the natural module, where it lies twice; its indicator is +1, so the
    # split is real
    argv = ("verify", "--group", "PSL2:7", "--H", "stab0", "--rep", "dim:6")
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    rep = json.loads(out)["rep"]
    assert rep["invariance_residual"] <= config.TOL.ortho
    del rep["invariance_residual"]
    assert rep == {"name": "irr6", "dim": 6, "dtype": "float64",
                   "carrier": "perm8^x2",
                   "character_index": character_table(
                       permgroup.make_psl2(7)).degrees().tolist().index(6),
                   "seed": config.DEFAULT_SEED, "multiplicity": 2,
                   "indicator": 1}
    _, human, _ = run(capsys, *argv)
    assert not any(w in human for w in ("indicator", "carrier", "float64"))
    _, out, _ = run(capsys, "--json", "verify", "--group", "S5", "--H",
                    "stab4", "--rep", "young:[3,1,1]")
    assert json.loads(out)["rep"] == {"name": "young[3,1,1]", "dim": 6,
                                      "dtype": "float64",
                                      "partition": "[3,1,1]"}


def test_verify_full_subset_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "--group", "S4", "--H", "stab3",
                       "--rep", "young:[3,1]", "--chars", "0,1,2")
    assert code == 2
    assert "full space" in err


def test_verify_table_free_group_skips_the_character_identity(capsys):
    code, out, _ = run(capsys, "--cap", "1000", "--json", "verify",
                       "--group", "data:sp6_2_deg28", "--H", "stab0",
                       "--rep", "rotation")
    assert code == 0
    results = json.loads(out)["results"]
    assert results and all(r["certified"] for r in results)
    assert all(r["fonda_residual"] is None for r in results)
    code, out, _ = run(capsys, "--cap", "1000", "verify",
                       "--group", "data:sp6_2_deg28", "--H", "stab0",
                       "--rep", "rotation")
    assert code == 0
    assert "certified: yes" in out
    assert "residual not checked: sp6_2_deg28 has no element table" in out


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
    ["clifford", "2", "--r", "5"],
    ["clifford", "2", "--r", "0"],
    ["hook", "3,,1"],
    ["hook", "[3,1"],
    ["hook", "3,1]"],
    ["hook", ",3"],
    ["--cap", "-1", "verify", "--group", "data:m11", "--H", "stab0",
     "--rep", "dim:10"],
], ids=["negative-char", "char-out-of-range", "repeated-char",
        "even-q", "missing-file", "over-cap", "clifford-rank-above-index",
        "clifford-rank-zero", "partition-empty-field",
        "partition-open-bracket", "partition-close-bracket",
        "partition-leading-comma", "negative-cap"])
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_integer_specs_and_points_are_one_error_line(tmp_path, capsys):
    # these used to leave the program as bare ValueErrors, which main
    # treated as input errors alongside every other ValueError
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 3\n(1 a)\n")
    for group, rep, named in ((f"file:{bad}", "dim:2", "'(1 a)'"),
                              ("S5", "dim:x", "'dim:x'"),
                              ("PGL2:x", "dim:2", "'PGL2:x'"),
                              ("PSL2:7.5", "dim:2", "'PSL2:7.5'")):
        code, out, err = run(capsys, "verify", "--group", group,
                             "--H", "stab0", "--rep", rep)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err


def test_a_value_error_inside_a_builder_is_not_bad_input(monkeypatch):
    # only GrasspackError and OSError are input errors: a ValueError from
    # inside the program is a fault and propagates out of main
    def broken(*args, **kwargs):
        raise ValueError("fault inside a builder")
    monkeypatch.setattr(cli, "young_orthogonal_rep", broken)
    with pytest.raises(ValueError, match="fault inside a builder"):
        main(["verify", "--group", "S4", "--H", "stab3",
              "--rep", "young:[3,1]"])


def test_over_cap_projective_q_is_refused_before_any_field(monkeypatch,
                                                           capsys):
    # GF(q) holds two q x q tables: 16 TB at q = 1,000,003
    def no_field(q):
        raise AssertionError(f"GF({q}) was built")
    monkeypatch.setattr(permgroup, "GF", no_field)
    with pytest.raises(PermError, match="enumeration cap"):
        make_pgl2(127)                      # 2,048,256 elements
    for argv in (["table-pgl", "1000003"],
                 ["verify", "--group", "PGL2:1000003", "--H", "stab0",
                  "--rep", "dim:2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_over_table_limit_projective_q_is_refused_before_enumerating(
        monkeypatch, capsys):
    # PGL2(59) has 61 classes and PGL2(83) 85, past the table limit 60;
    # both used to close every element before compute_table refused them
    def no_closure(cls, *args, **kwargs):
        raise AssertionError("a group was enumerated")
    monkeypatch.setattr(PermGroup, "generated", classmethod(no_closure))
    for q, n_classes in ((59, 61), (83, 85)):
        message = f"{n_classes} classes exceeds the table limit 60"
        with pytest.raises(CatalogError, match=message):
            projective_entries(q)
        code, out, err = run(capsys, "table-pgl", str(q))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_negative_cap_is_refused_up_front(capsys):
    # before the check, -1 made m11 table-free and the error named the table
    code, out, err = run(capsys, "--cap", "-1", "verify", "--group",
                         "data:m11", "--H", "stab0", "--rep", "dim:10")
    assert (code, out) == (2, "")
    assert err == "error: --cap must be non-negative, got -1\n"
    code, out, _ = run(capsys, "--cap", "0", "hook", "3,1")
    assert code == 0 and "dimension 3" in out


def test_negative_seed_is_refused_up_front(capsys):
    # before the check, -1 reached numpy's generator as a ValueError traceback
    code, out, err = run(capsys, "--seed", "-1", "verify", "--group",
                         "PSL2:13", "--H", "stab0", "--rep", "dim:12")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be non-negative, got -1\n"
    code, out, _ = run(capsys, "--seed", "0", "hook", "3,1")
    assert code == 0 and "dimension 3" in out


def test_empty_chars_field_is_refused(capsys):
    # before, "1,,2" certified characters [1, 2] and exited 0
    for spec in ("1,,2", "1,2,", ",1"):
        code, out, err = run(capsys, "verify", "--group", "S5", "--H", "stab4",
                             "--rep", "young:[3,2]", "--chars", spec)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad chars spec {spec!r}")
        assert err.count("\n") == 1
    for spec in ("1,2", "1 2", " 1, 2 "):
        code, out, _ = run(capsys, "verify", "--group", "S5", "--H", "stab4",
                           "--rep", "young:[3,2]", "--chars", spec)
        assert code == 0 and "chars [1, 2]: n=5 m=2 N=5" in out


@pytest.mark.parametrize("error", [PermError, CharacterError, RepError,
                                   GrassmannError, CodeError, CatalogError,
                                   CliError, SymplecticError])
def test_module_errors_share_one_base(error):
    assert issubclass(error, GrasspackError)


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


def test_verify_projective_line_over_gf2(capsys):
    # PGL2(2) is S3 on 3 points: its 2-dimensional irreducible gives three
    # lines in R^2 at d_c^2 = 3/4, the simplex bound
    code, out, _ = run(capsys, "--json", "verify", "--group", "PGL2:2",
                       "--H", "stab0", "--rep", "dim:2")
    assert code == 0
    results = json.loads(out)["results"]
    assert [(r["N"], r["certified"]) for r in results] == [(3, True)]
    assert abs(results[0]["d_c_sq_min"] - 0.75) < 1e-12


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


def test_clifford_json_lists_every_angle_set(capsys):
    # (3, 2): 420 codewords, five principal-angle sets on three distances
    code, out, _ = run(capsys, "--json", "clifford", "3", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    sets = payload["angle_sets"]
    assert len(sets) == 5 and len(payload["distances"]) == 3
    assert sum(s["pairs"] for s in sets) == 87990 == 420 * 419 // 2
    assert all(len(s["sin_sq"]) == 2 for s in sets)
    assert 0 <= payload["census_residual"] <= config.TOL.rel_distance
    _, human, _ = run(capsys, "clifford", "3", "--r", "2")
    assert "census" not in human and "sin" not in human


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


@pytest.mark.parametrize("r", [2, 3])
def test_clifford_over_the_pair_budget_is_one_error_line(capsys, monkeypatch,
                                                         r):
    # clifford 5 --r 2 ran out of memory and --r 3 ran for minutes; both
    # are refused from the subgroup count, before S_r is formed
    monkeypatch.setattr(codes, "clifford_family",
                        lambda *a: pytest.fail("S_r formed"))
    code, out, err = run(capsys, "clifford", "5", "--r", str(r))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "over the pair budget" in err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "6/6 checks passed" in out
    assert "FAIL" not in out


SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may rest on one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "grasspack").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# public names no module, script or benchmark refers to, kept on purpose
SURFACE_ALLOWED = {
    "build_union_code": "documented library builder (README)",
    "kron_extend": "documented library builder (README)",
    "kron_product": "documented library builder (README)",
    "SubspaceProjector.from_basis": "small constructor of a public type",
    "PermGroup.cyclic": "small constructor of a public type",
    "RestrictionDecomposition.nonzero": "small reader of a public type",
}


# modules whose attributes are never the package's own names
LIBRARY_MODULES = {"np", "numpy", "math"}


def referred_names(tree, strings=False):
    """(name, line) of every Name and Attribute in `tree`, and with
    `strings` the dotted parts of every string constant; an attribute
    reached off a library module (np.nonzero, np.linalg.svd) is not one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in LIBRARY_MODULES:
                continue
            names = [node.attr]
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names = node.value.split(".")
        else:
            continue
        for name in names:
            yield name, node.lineno


def test_library_attributes_are_not_callers():
    found = {name for name, _ in referred_names(ast.parse(
        "np.nonzero(x)\nnumpy.linalg.svd(a)\nmath.comb(4, 2)\ndec.order()"))}
    assert "nonzero" not in found and "svd" not in found
    assert "comb" not in found and "linalg" not in found
    assert {"order", "dec", "np", "x"} <= found


def test_every_public_name_has_a_caller():
    # a public function, class or method of the package must be referred
    # to (a Name or an Attribute) in the package outside its own
    # definition, in scripts/ or in perfbench/; perfbench also names the
    # functions it traces in strings such as "PermGroup.generated"
    root = SRC.parent
    files = [*sorted((SRC / "grasspack").glob("*.py")),
             *sorted((root / "scripts").glob("*.py")),
             *sorted((root / "perfbench").glob("*.py"))]
    refs = {}                                   # name -> [(path, line)]
    for path in files:
        for name, line in referred_names(ast.parse(path.read_text()),
                                         path.parent.name == "perfbench"):
            refs.setdefault(name, []).append((path, line))

    def called(path, name, node):
        return any(p != path or not node.lineno <= line <= node.end_lineno
                   for p, line in refs.get(name, []))

    unused = []
    for path in sorted((SRC / "grasspack").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found = [(node.name, node)] if node.name[0] != "_" else []
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{item.name}", item)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name[0] != "_"]
            unused += [qual for qual, item in found
                       if not called(path, qual.rsplit(".", 1)[-1], item)]
    assert sorted(unused) == sorted(SURFACE_ALLOWED)


def test_broken_selftest_check_fails_under_optimize():
    script = ("import sys\n"
              "from grasspack import cli\n"
              "cli.hook_dimension = lambda lam: 0\n"
              "sys.exit(cli.main(['selftest']))\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 1
    assert ("FAIL  hook dimensions and branching: [6,4,2] has dimension 0, "
            "expected 2673") in proc.stdout
    assert "5/6 checks passed" in proc.stdout


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "hook.json"
    code, out, _ = run(capsys, "--json", "--out", str(target),
                       "hook", "[3,2,1]")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dimension"] == 16


def test_verify_csv_out_writes_the_code_row(tmp_path, capsys):
    # --json, --csv and --out are the one export path for a code
    table = character_table(PermGroup.symmetric(4).stabilizer(3))
    trivial = next(i for i, chi in enumerate(table.irreducibles)
                   if abs(chi.values - 1).max() < 1e-9)
    target = tmp_path / "code.csv"
    code, out, _ = run(capsys, "--csv", "--out", str(target), "verify",
                       "--group", "S4", "--H", "stab3", "--rep", "young:[3,1]",
                       "--chars", str(trivial))
    assert (code, out) == (0, "")
    rows = list(csv.reader(target.read_text().splitlines()))
    assert rows[0] == ["chars", "n", "m", "N", "d_c_sq", "certified"]
    assert len(rows) == 2
    chars, n, m, big_n, d_c_sq, certified = rows[1]
    assert (chars, n, m, big_n, certified) == (str(trivial), "3", "1", "4",
                                               "True")
    assert abs(float(d_c_sq) - 8 / 9) <= 1e-9


def test_json_csv_conflict():
    with pytest.raises(SystemExit) as exc:
        main(["--json", "--csv", "hook", "[2,1]"])
    assert exc.value.code == 2


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
