"""Regenerate the bundled generator files under src/grasspack/data.

Mathieu groups use the classical generator words.  Symplectic groups over
F_2 are built from transvections acting on the two type-orbits of quadratic
forms; a short random product search (fixed seed) finds a two-element
generating set so the shipped files load fast.  Every group is checked for
its order, |orbit of 0| |G_0| from the Schreier tree of point 0, and for
2-transitivity; no element table of G is built.

    python scripts/make_group_data.py [--out DIR] [--seed N]
"""
import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from grasspack import config
from grasspack.permgroup import PermGroup, Permutation, dumps_group, parse_cycles
from grasspack.symplectic import form_orbits, induced_generators, transvection

MATHIEU = {
    "m11": (11, 7920, [
        "(1 2 3 4 5 6 7 8 9 10 11)",
        "(3 7 11 8)(4 10 5 6)",
    ]),
    "m12": (12, 95040, [
        "(1 2 3 4 5 6 7 8 9 10 11)",
        "(3 7 11 8)(4 10 5 6)",
        "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)",
    ]),
    "m22": (22, 443520, [
        "(1 2 3 4 5 6 7 8 9 10 11)(12 13 14 15 16 17 18 19 20 21 22)",
        "(1 4 5 9 3)(2 8 10 7 6)(12 15 16 20 14)(13 19 21 18 17)",
        "(1 21)(2 10 8 6)(3 13 4 17)(5 19 9 18)(11 22)(12 14 16 20)",
    ]),
}

SYMPLECTIC_ORDERS = {2: 720, 3: 1451520}


def of_order(gens, order: int) -> PermGroup | None:
    """The group of `gens`, without an element table, if its order
    |orbit of 0| |G_0| (from the Schreier tree of point 0) is `order`."""
    g = PermGroup.deferred(gens)
    g.stabilizer(0)
    return g if g.order == order else None


def build_mathieu(outdir: Path):
    for name, (degree, order, words) in MATHIEU.items():
        g = of_order([parse_cycles(w, degree) for w in words], order)
        if g is None:
            raise SystemExit(f"{name}: generators do not give order {order}")
        if not g.is_two_transitive(g.stabilizer(0)):
            raise SystemExit(f"{name}: action is not 2-transitive")
        path = outdir / f"{name}.grp"
        path.write_text(dumps_group(g, comment=f"{name.upper()}, order {order}"))
        print(f"wrote {path} (order {order})")


def random_symplectic_pair(m: int, rng: np.random.Generator):
    """Two products of transvections, one odd-length so the pair can cover
    the full group when it has an index-2 subgroup (Sp4(2) = S6)."""
    def product(k):
        cols = [1 << i for i in range(2 * m)]
        for _ in range(k):
            v = int(rng.integers(1, 1 << (2 * m)))
            cols = transvection(v, m, compose_with=cols)
        return cols
    return product(5), product(6)


def build_symplectic(outdir: Path, m: int, seed: int):
    order = SYMPLECTIC_ORDERS[m]
    plus, minus = form_orbits(m)
    rng = np.random.default_rng(seed)
    for attempt in range(200):
        pair = random_symplectic_pair(m, rng)
        g = of_order([Permutation(x) for x in induced_generators(pair, m, minus)],
                     order)
        if g is None:
            continue
        gp = of_order([Permutation(x) for x in induced_generators(pair, m, plus)],
                      order)
        if gp is None:
            continue
        for tag, grp, npts in ((f"sp{2*m}_2_deg{len(minus)}", g, len(minus)),
                               (f"sp{2*m}_2_deg{len(plus)}", gp, len(plus))):
            if not grp.is_two_transitive(grp.stabilizer(0)):
                raise SystemExit(f"{tag}: action not 2-transitive")
            path = outdir / f"{tag}.grp"
            path.write_text(dumps_group(
                grp, comment=f"Sp({2*m},2) on the {npts} quadratic forms of one "
                             f"type, order {order}"))
            print(f"wrote {path} (order {order}, attempt {attempt})")
        return
    raise SystemExit(f"no generating pair found for Sp({2*m},2)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=None,
                    help="output directory (default: package data dir)")
    ap.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    args = ap.parse_args()
    outdir = args.out or (Path(__file__).resolve().parents[1]
                          / "src" / "grasspack" / "data")
    outdir.mkdir(parents=True, exist_ok=True)
    build_mathieu(outdir)
    build_symplectic(outdir, m=2, seed=args.seed)
    build_symplectic(outdir, m=3, seed=args.seed)


if __name__ == "__main__":
    main()
