"""One working-memory budget: `config.BLOCK_BYTES` sizes every streamed pass,
and no pass's result depends on it."""
import ast
import re
from pathlib import Path

import numpy as np
import pytest

import grasspack
from grasspack import config, reps
from grasspack.characters import character_table, class_multiplication
from grasspack.codes import IsotypicContext, build_clifford_orthoplex
from grasspack.grassmann import SubspaceProjector
from grasspack.permgroup import (PermGroup, Permutation, make_pgl2,
                                 make_psl2)
from grasspack.reps import (Partition, extract_irrep, find_carrier,
                            isotypic_weights, young_orthogonal_rep)


def test_one_working_memory_budget():
    # no module but config binds a module-level byte or row budget, and no
    # module sizes its blocks with a helper of its own
    budgets, helpers = [], []
    for path in sorted(Path(grasspack.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            budgets += [(path.stem, t.id) for t in targets
                        if isinstance(t, ast.Name)
                        and re.fullmatch(r"_?[A-Z_]*(BYTES|ROWS)", t.id)]
        helpers += [path.stem for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "_block_rows"]
    assert budgets == [("config", "BLOCK_BYTES")]
    assert helpers == []


def test_blocks_cover_the_rows_at_the_budget(monkeypatch):
    monkeypatch.setattr(config, "BLOCK_BYTES", 100)
    assert list(config.blocks(7, 30)) == [slice(0, 3), slice(3, 6),
                                          slice(6, 7)]
    assert list(config.blocks(2, 1000)) == [slice(0, 1), slice(1, 2)]
    assert list(config.blocks(0, 30)) == []


def _every_pass():
    """What each streamed pass gives, from groups, reps and codes built
    afresh under the budget in force."""
    out = {}
    for name, g in (("S5", PermGroup.symmetric(5)),
                    ("PGL2(7)", make_pgl2(7))):
        out[name, "rows"] = g.rows
        out[name, "tree"] = np.stack([g._table.parent, g._table.via])
        out[name, "right"] = np.stack(g._table.right)
        out[name, "inverse"] = g._inverse_index()
        out[name, "class_mult"] = class_multiplication(g)
    rep = young_orthogonal_rep(PermGroup.symmetric(6), Partition((3, 2, 1)))
    out["S6 class sums"] = rep.class_sums(
        range(rep.group.conjugacy_classes().n_classes))
    g = make_psl2(7)
    six = next(i for i, d in enumerate(character_table(g).degrees())
               if d == 6)
    carrier = find_carrier(g, six)
    assert carrier.multiplicities()[six] == 2     # the commutant split runs
    # the copy's basis is free within its eigenvalue cluster, so the average
    # that splits the component is compared, and the copy's character
    table = character_table(g)
    full = reps._isotypic_basis(carrier, isotypic_weights(table, [six]).real,
                                12)
    x = np.random.default_rng(5).standard_normal(12)
    out["PSL2(7) commutant"] = carrier.commutant_average(full, x)
    out["PSL2(7) degree 6"] = extract_irrep(carrier, six).character().values
    s5 = PermGroup.symmetric(5)
    ctx = IsotypicContext(s5, s5.stabilizer(4),
                          young_orthogonal_rep(s5, Partition((3, 1, 1))))
    lam = ctx.decomposition.multiplicities
    degs = character_table(ctx.h).degrees()
    chars = [next(i for i in range(len(degs)) if lam[i] and degs[i] == 3)]
    for name, code in (("S5 orbit", ctx.build(chars)),
                       ("Clifford (3, 2)", build_clifford_orthoplex(3, 2))):
        out[name, "census"] = np.array([s.sin_sq + (c,)
                                        for s, c in code.census])
        out[name, "residual"] = code.provenance["census_residual"]
    out["fonda2"] = np.array([ctx.fonda2_residual(chars,
                                                  Permutation(s5.rows[i]))
                              for i in (1, 17, 119)])
    rng = np.random.default_rng(43)
    stack = np.stack([SubspaceProjector.from_basis(
        rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
    ).projector for m in (1, 2, 3, 4, 2, 1, 3)])
    out["stack ranks"] = np.array([p.m for p in
                                   SubspaceProjector.stack(stack)])
    return out


@pytest.fixture(scope="module")
def at_the_default_budget():
    return _every_pass()


def test_every_pass_gives_the_same_at_any_budget(at_the_default_budget,
                                                 monkeypatch):
    # at 256 bytes every pass runs in many blocks, most of one row
    monkeypatch.setattr(config, "BLOCK_BYTES", 256)
    got = _every_pass()
    assert got.keys() == at_the_default_budget.keys()
    for key, want in at_the_default_budget.items():
        have = np.asarray(got[key])
        if have.dtype.kind in "iub":
            assert np.array_equal(have, want), key
        else:
            assert have.shape == np.shape(want), key
            assert np.abs(have - want).max() <= 1e-12, key
