"""Catalog lanes: reference data sanity, tower sweeps, projective columns."""
from fractions import Fraction

import pytest

from grasspack import catalog, characters, codes, permgroup, reps
from grasspack.catalog import (CUSPIDAL_ANGLES, LOADED_CORRECTIONS,
                               LOADED_REFERENCE, SYMMETRIC_CORRECTIONS,
                               SYMMETRIC_REFERENCE, CatalogError,
                               canonical_shapes, check_loaded_block,
                               check_projective_table,
                               check_symmetric_tower, loaded_group_entries,
                               projective_columns, projective_entries,
                               reference_block, reference_prediction_entries,
                               symmetric_tower_entries)
from grasspack.cli import main
from grasspack.codes import CodeParams, GrassmannCode
from grasspack.grassmann import PrincipalAngleSet
from grasspack.reps import hook_dimension


def exact_bound(n, m, count):
    return Fraction(count, count - 1) * m * (n - m) / n


# ---------------------------------------------------------- reference data


def test_symmetric_reference_values_follow_bound():
    # every listed value equals the bound except the three corrected cells
    off = []
    for points, cells in SYMMETRIC_REFERENCE.items():
        for n, m, listed in cells:
            if Fraction(listed) != exact_bound(n, m, points):
                off.append((points, n, m))
    assert sorted(off) == sorted(SYMMETRIC_CORRECTIONS)


def test_symmetric_corrections_equal_bound():
    for (points, n, m), value in SYMMETRIC_CORRECTIONS.items():
        assert Fraction(value) == exact_bound(n, m, points)


def test_loaded_reference_values_follow_bound():
    off = []
    for block in LOADED_REFERENCE:
        for cell in block.cells:
            if cell.listed is None:
                continue
            if Fraction(cell.listed) != exact_bound(cell.n, cell.m,
                                                    block.count):
                off.append((block.label, cell.n, cell.m))
    assert sorted(off) == sorted(LOADED_CORRECTIONS)


def test_loaded_corrections_equal_bound():
    for (label, n, m), value in LOADED_CORRECTIONS.items():
        count = reference_block(label).count
        assert Fraction(value) == exact_bound(n, m, count)


def test_reference_block_lookup():
    assert reference_block("M24 on 24 points").count == 24
    with pytest.raises(CatalogError):
        reference_block("no such block")


def test_reference_cells_are_unique_per_table():
    # cells are looked up by (n, m); a repeated row would shadow another
    for points, cells in SYMMETRIC_REFERENCE.items():
        keys = [(n, m) for n, m, _ in cells]
        assert len(keys) == len(set(keys)), points
    for block in LOADED_REFERENCE:
        keys = [(c.n, c.m) for c in block.cells]
        assert len(keys) == len(set(keys)), block.label


@pytest.mark.parametrize("points", [4, 5, 6, 7, 8])
def test_tower_checks_follow_reference_order(points):
    checks = check_symmetric_tower([], points)
    rows = SYMMETRIC_REFERENCE[points]
    assert [(c.n, c.m, c.listed) for c in checks] == rows
    for c in checks:
        fix = SYMMETRIC_CORRECTIONS.get((points, c.n, c.m))
        assert c.corrected == (fix is not None)
        assert c.target == (fix or c.listed)
        assert not c.matched and c.families == ()


@pytest.mark.parametrize("block", LOADED_REFERENCE, ids=lambda b: b.label)
def test_block_checks_follow_reference_order(block):
    checks = check_loaded_block([], block)
    rows = [(c.n, c.m, c.listed) for c in block.cells if c.listed is not None]
    assert [(c.n, c.m, c.listed) for c in checks] == rows
    for c in checks:
        fix = LOADED_CORRECTIONS.get((block.label, c.n, c.m))
        assert c.corrected == (fix is not None)
        assert c.target == (fix or c.listed)
        assert not c.matched and c.families == ()


def test_projective_columns_equal_bound():
    for q in (5, 7, 9, 11, 13):
        for col in projective_columns(q):
            assert col.d == exact_bound(col.n, col.m, q + 1), col


def test_projective_column_availability():
    assert not {c.label for c in projective_columns(7) if not c.available} - {6, 7}
    cols5 = {c.label: c.available for c in projective_columns(5)}
    assert cols5[6] is False and cols5[7] is True
    cols7 = {c.label: c.available for c in projective_columns(7)}
    assert cols7[6] is True and cols7[7] is False
    with pytest.raises(CatalogError):
        projective_columns(4)


def test_cuspidal_angles_sum_to_distance():
    for q, angles in CUSPIDAL_ANGLES.items():
        assert sum(angles) == pytest.approx(float(exact_bound(q - 1,
                                                              (q - 1) // 2,
                                                              q + 1)))
        assert list(angles) == sorted(angles)


# ---------------------------------------------------------- symmetric tower


def test_canonical_shapes_dedupe_conjugates():
    shapes = canonical_shapes(5)
    assert [list(s.parts) for s in shapes] == [[4, 1], [3, 2], [3, 1, 1]]
    assert all(hook_dimension(s) >= 2 for s in shapes)


@pytest.mark.parametrize("points", [4, 5, 6])
def test_tower_matches_reference(points):
    entries = symmetric_tower_entries(points)
    assert all(e.status == "verified" for e in entries)
    checks = check_symmetric_tower(entries, points)
    assert checks and all(c.matched for c in checks)


def test_tower_corrected_cell_is_flagged():
    entries = symmetric_tower_entries(6)
    flagged = [e for e in entries if "listed-value-differs" in e.flags]
    assert [(e.n, e.m, e.d_fraction) for e in flagged] == [(16, 6, "9/2")]


def test_tower_reports_unlisted_alternating_cell():
    entries = symmetric_tower_entries(6)
    extra = [e for e in entries if "unlisted" in e.flags]
    assert [(e.family, e.n, e.m) for e in extra] == [("alternating", 10, 3)]


def test_tower_flags_family_coincidences():
    entries = symmetric_tower_entries(5)
    both = {(e.n, e.m) for e in entries
            if any(f.startswith("coincides-with") for f in e.flags)}
    assert both == {(4, 1), (5, 2)}


def test_tower_without_alternating_lane():
    entries = symmetric_tower_entries(5, include_alternating=False)
    assert {e.family for e in entries} == {"symmetric"}
    assert {(e.n, e.m) for e in entries} == {(4, 1), (5, 2), (6, 3)}


def test_alternating_lane_splits_without_extraction(monkeypatch):
    # a self-conjugate shape splits on A_n through its associator, so the
    # tower extracts nothing; [3,2,1] (dimension 16) gives halves of 8
    def refuse(*args, **kwargs):
        raise AssertionError("the tower lane extracted a representation")
    monkeypatch.setattr(catalog, "extract_irrep", refuse)
    monkeypatch.setattr(reps, "extract_irrep", refuse)
    entries = symmetric_tower_entries(6)
    split = [e for e in entries if e.family == "alternating"
             and e.parameters["partition"] == [3, 2, 1]]
    assert split and {e.parameters["rep_dim"] for e in split} == {8}
    assert all(e.status == "verified" for e in split)


# ---------------------------------------------------------- projective line


def test_projective_entries_q5():
    entries = projective_entries(5)
    assert all(e.status == "verified" for e in entries)
    checks = check_projective_table(entries, 5)
    for c in checks:
        assert c.matched or not c.available, c
    col8 = next(c for c in checks if c.label == 8)
    assert col8.angles_ok


def test_projective_q5_has_no_half_sum_cell():
    # PSL2(5) lacks a 6-dim irreducible, so the (6, 3) column is out
    entries = projective_entries(5)
    assert (6, 3) not in {(e.n, e.m) for e in entries}


# ---------------------------------------------------------- loaded groups


class _BuiltCell:
    """Stands in for an IsotypicContext whose one build is an equidistant
    code of N lines in C^n at a given squared chordal distance."""

    def __init__(self, n, big_n, d):
        angles = PrincipalAngleSet((d,))
        params = CodeParams(n=n, m=1, N=big_n, d_c_sq_min=d, d_tilde_min=0.0,
                            spa_sets=(angles,), meets_simplex=True,
                            meets_orthoplex=False)
        self.code = GrassmannCode((), params, {},
                                  ((angles, big_n * (big_n - 1) // 2),))

    def build(self, chars):
        return self.code


@pytest.mark.parametrize("corrected", [None, "14160/14161"])
def test_cell_matches_target_beyond_max_denominator(corrected):
    # (119, 1) cell of Sp8(2) on 120 points: the simplex value 14160/14161
    # has a denominator above what as_fraction recovers
    target = Fraction(14160, 14161)
    assert target == exact_bound(119, 1, 120)
    assert catalog.as_fraction(float(target)) != target
    listed = "14160/14161" if corrected is None else "1"
    e = catalog._entry_from_context(
        "loaded", {}, _BuiltCell(119, 120, float(target)), 1, [0],
        listed, corrected)
    assert e.status == "verified", e.flags
    assert e.d_fraction == "14160/14161"
    assert "expected-mismatch" not in e.flags
    assert ("listed-value-differs" in e.flags) == (corrected is not None)


def test_cell_off_target_is_a_mismatch():
    d = float(Fraction(14160, 14161)) * (1 + 1e-6)
    e = catalog._entry_from_context(
        "loaded", {}, _BuiltCell(119, 120, d), 1, [0], "14160/14161", None)
    assert e.status == "failed"
    assert "expected-mismatch" in e.flags


def test_prediction_entries_flag_known_deviations():
    expected = {
        "Sp4(2) on 10 points": {(9, 4)},
        "Sp6(2) on 28 points": {(56, 20), (70, 10)},
        "Sp8(2) on 136 points": {(595, 28)},
        "Sp8(2) on 120 points": {(119, 1), (119, 34), (119, 35), (238, 34)},
    }
    for block in LOADED_REFERENCE:
        ents = reference_prediction_entries(block)
        assert all(e.status == "predicted" for e in ents)
        off = {(e.n, e.m) for e in ents if "listed-value-differs" in e.flags}
        assert off == expected.get(block.label, set()), block.label


def test_prediction_formula_value():
    block = reference_block("M24 on 24 points")
    ents = reference_prediction_entries(block)
    first = next(e for e in ents if (e.n, e.m) == (23, 1))
    assert first.d_fraction == "528/529"
    assert first.expected == "528/529"
    assert "no-listed-value" not in first.flags


def test_prediction_marks_unvalued_cells():
    block = reference_block("Sp10(2) on 528 points")
    ents = reference_prediction_entries(block)
    unvalued = {(e.n, e.m) for e in ents if "no-listed-value" in e.flags}
    assert unvalued == {(527, 1), (527, 186), (527, 187)}


def test_each_carrier_is_built_once_per_group(monkeypatch, capsys):
    built = []                                  # (group, k) per construction
    init = reps.PermTensorCarrier.__init__

    def counted(self, group, k, *args, **kwargs):
        built.append((group, k))
        init(self, group, k, *args, **kwargs)

    monkeypatch.setattr(reps.PermTensorCarrier, "__init__", counted)
    assert projective_entries(7)
    keys = [(id(g), k) for g, k in built]
    # PGL2(7), PSL2(7); k = 1, 2: no character of either needs the cube
    assert len(keys) == len(set(keys)) == 4
    carrier = reps.PermTensorCarrier(built[0][0], 2)
    assert carrier.character() is carrier.character()
    # S7's two 21-dimensional irreducibles, [3,3,1] and [3,2,2], lie in no
    # tensor power up to the cube: dim:21 tries both rows on one carrier set
    built.clear()
    assert main(["verify", "--group", "S7", "--H", "stab6",
                 "--rep", "dim:21"]) == 2
    assert "no tensor-power carrier" in capsys.readouterr().err
    assert sorted(k for _, k in built) == [1, 2, 3]
    # no irreducible of M11 has degree 3: no cell, so no carrier is built
    built.clear()
    assert loaded_group_entries("m11", dims={3}) == []
    assert built == []


def test_each_carrier_is_decomposed_once_per_table(monkeypatch):
    # find_carrier asks about every character of a group, and extraction
    # needs the multiplicity again: one decomposition per (carrier, table)
    calls = []                  # (values, table), held so ids stay unique
    decompose = reps.decompose

    def counted(values, table):
        calls.append((values, table))
        return decompose(values, table)

    monkeypatch.setattr(reps, "decompose", counted)
    assert projective_entries(7)
    pairs = {(id(values), id(table)) for values, table in calls}
    # PGL2(7) and PSL2(7), each against its own table, on k = 1, 2
    assert len(calls) == len(pairs) <= 4


@pytest.mark.parametrize("sweep, tables", [
    (lambda: symmetric_tower_entries(6), 3),        # S5, A6, A5
    (lambda: projective_entries(7), 4),             # PGL2, PSL2, stabilizers
    (lambda: loaded_group_entries("sp4_2_deg10"), 4),   # G, G', stabilizers
    (catalog.rotation_code_entries, 1),             # H only; G has no table
    (lambda: main(["verify", "--group", "data:sp4_2_deg10", "--H", "stab0",
                   "--rep", "dim:5"]) == 0, 2)],
    ids=["tower6", "projective7", "sp4_2_deg10", "rotation", "verify-dim5"])
def test_each_group_is_tabulated_once(monkeypatch, sweep, tables):
    # a group's character table is computed on first use and kept on it
    tabulated = []                  # the groups themselves, so ids stay unique
    compute = characters.compute_table

    def counted(g, *args, **kwargs):
        tabulated.append(g)
        return compute(g, *args, **kwargs)

    monkeypatch.setattr(characters, "compute_table", counted)
    assert sweep()
    assert len({id(g) for g in tabulated}) == len(tabulated) == tables


def test_data_path_env_override(tmp_path, monkeypatch):
    target = catalog.data_path("m11")
    assert target.name == "m11.grp"
    copy = tmp_path / "m11.grp"
    copy.write_bytes(target.read_bytes())
    monkeypatch.setenv("GRASSPACK_DATA", str(tmp_path))
    assert catalog.data_path("m11") == copy
    monkeypatch.delenv("GRASSPACK_DATA")
    with pytest.raises(CatalogError):
        catalog.data_path("not_a_group")


# ------------------------------------------------ rotation cell, table-free


def test_rotation_cell_closes_only_the_stabilizer(monkeypatch):
    closed, built = [], []
    closure, build = permgroup._closure, codes.IsotypicContext.build

    def counting_closure(*args, **kwargs):
        table = closure(*args, **kwargs)
        closed.append(len(table.rows))
        return table

    def keeping_build(self, *args, **kwargs):
        built.append(build(self, *args, **kwargs))
        return built[-1]
    monkeypatch.setattr(permgroup, "_closure", counting_closure)
    monkeypatch.setattr(codes.IsotypicContext, "build", keeping_build)
    entries = catalog.rotation_code_entries()
    assert [(e.n, e.m, e.d_fraction, e.status) for e in entries] \
        == [(7, 1, "8/9", "verified")]
    assert max(closed) == 51_840                # |H|; |G| = 1,451,520
    prov = built[0].provenance
    assert (prov["orbit_length"], prov["subgroup_order"]) == (28, 51_840)
    assert prov["schreier_generators"] == 56    # 28 points x 2 generators
    assert prov["schur_gap"] > 0.1
