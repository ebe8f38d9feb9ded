"""Command-line front end: table sweeps, single-code verification, utilities.

Exit codes: 0 all requested checks passed, 1 at least one cell or
certification failed, 2 bad input (any of INPUT_ERRORS or an OSError, reported
as one `error:` line).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import config
from .catalog import (CatalogError, check_projective_table,
                      check_symmetric_tower, load_packaged_group,
                      predicted_tower_entries, projective_entries,
                      subset_reps, symmetric_tower_entries)
from .characters import CharacterError, compute_table
from .codes import (CodeError, IsotypicContext, build_clifford_orthoplex,
                    build_isotypic_code, predict_from_dimensions,
                    verify_fonda2, verify_simplex)
from .grassmann import GrassmannError, format_value
from .permgroup import PermError, PermGroup, load_group, make_pgl2, make_psl2
from .reps import (Partition, RepError, branching, extract_irrep,
                   find_carrier, hook_dimension, symplectic_rotation_rep,
                   young_orthogonal_rep)

INPUT_ERRORS = (CatalogError, CharacterError, CodeError, GrassmannError,
                PermError, RepError, ValueError)


class CliError(Exception):
    pass


@dataclasses.dataclass
class Options:
    seed: int
    tol: float
    cap: int
    fmt: str                     # human | json | csv
    out: Path | None


class Emitter:
    """Collects human lines plus a machine payload, writes one of them."""

    def __init__(self, opts: Options):
        self.opts = opts
        self.lines: list[str] = []
        self.payload = None
        self.csv_rows: list[list] = []
        self.csv_header: list[str] | None = None

    def say(self, line: str = ""):
        self.lines.append(line)

    def flush(self):
        if self.opts.fmt == "json":
            text = json.dumps(self.payload, indent=2, default=str) + "\n"
        elif self.opts.fmt == "csv":
            buf = io.StringIO()
            w = csv.writer(buf)
            if self.csv_header:
                w.writerow(self.csv_header)
            w.writerows(self.csv_rows)
            text = buf.getvalue()
        else:
            text = "\n".join(self.lines) + "\n"
        if self.opts.out:
            self.opts.out.write_text(text)
        else:
            sys.stdout.write(text)


def _entry_row(e):
    return [e.family, e.n, e.m, e.count, e.d_fraction or "", e.expected or "",
            e.status, ";".join(e.flags)]


ENTRY_HEADER = ["family", "n", "m", "N", "d_c_sq", "expected", "status",
                "flags"]


def _entry_line(e):
    d = e.d_fraction if e.d_fraction is not None else "-"
    extra = f"  [{', '.join(e.flags)}]" if e.flags else ""
    exp = f" (listed {e.expected})" if e.expected and e.expected != d else ""
    return (f"  {e.family:<12} n={e.n:<5d} m={e.m:<4d} N={e.count:<4d} "
            f"d_c^2={d:<12} {e.status}{exp}{extra}")


def _entries_payload(entries, checks=None):
    out = {"entries": [dataclasses.asdict(e) for e in entries]}
    if checks is not None:
        out["checks"] = [dataclasses.asdict(c) for c in checks]
    return out


# ------------------------------------------------------------- spec parsing


def _resolve_group(spec: str, cap: int) -> PermGroup:
    s = spec.strip()
    try:
        if s.upper().startswith("PGL2:"):
            return make_pgl2(int(s.split(":", 1)[1]))
        if s.upper().startswith("PSL2:"):
            return make_psl2(int(s.split(":", 1)[1]))
        if s.startswith("file:"):
            return load_group(Path(s[5:]), cap=cap)
        if s.startswith("data:"):
            return load_packaged_group(s[5:], cap=cap)
        if s[:1] in "SA" and s[1:].isdigit():
            k = int(s[1:])
            return (PermGroup.symmetric(k) if s[0] == "S"
                    else PermGroup.alternating(k))
    except INPUT_ERRORS as err:
        raise CliError(f"cannot resolve group {spec!r}: {err}")
    raise CliError(f"unrecognized group spec {spec!r} "
                   "(use S6, A7, PGL2:5, PSL2:9, file:PATH, data:NAME)")


def _resolve_subgroup(g: PermGroup, spec: str) -> PermGroup:
    s = spec.strip()
    if s.startswith("stab") and s[4:].isdigit():
        point = int(s[4:])
        if point >= g.degree:
            raise CliError(f"point {point} out of range for degree {g.degree}")
        return g.stabilizer(point)
    raise CliError(f"unrecognized subgroup spec {spec!r} (use stab<point>)")


def _resolve_rep(g: PermGroup, spec: str, seed: int):
    s = spec.strip()
    if s.startswith("young:"):
        lam = _parse_partition(s[6:])
        if lam.n != g.degree:
            raise CliError(f"partition of {lam.n} does not fit degree "
                           f"{g.degree}")
        try:
            return young_orthogonal_rep(g, lam)
        except INPUT_ERRORS as err:
            raise CliError(f"young rep failed: {err}")
    if s == "rotation":
        try:
            return symplectic_rotation_rep(g)
        except INPUT_ERRORS as err:
            raise CliError(f"rotation rep failed: {err}")
    if s.startswith("dim:"):
        want = int(s[4:])
        try:
            table = compute_table(g, seed=seed)
            degs = table.degrees()
            rows = [i for i in range(table.n_classes) if int(degs[i]) == want]
            if not rows:
                raise CliError(f"no irreducible of dimension {want} "
                               f"in {g.name}")
            for i in rows:
                carrier = find_carrier(g, table, i)
                if carrier is not None:
                    return extract_irrep(carrier, g, table, i, seed=seed)
        except CliError:
            raise
        except INPUT_ERRORS as err:
            raise CliError(f"rep extraction failed: {err}")
        raise CliError(f"no tensor-power carrier found for dimension {want}; "
                       "try a permutation-derived dimension")
    raise CliError(f"unrecognized rep spec {spec!r} "
                   "(use young:[3,1,1,1], dim:5, rotation)")


def _parse_partition(text: str) -> Partition:
    try:
        lam = Partition.parse(text)
    except INPUT_ERRORS as err:
        raise CliError(f"bad partition {text!r}: {err}")
    if not lam.parts:
        raise CliError("empty partition")
    return lam


def _resolve_chars(ctx: IsotypicContext, spec: str) -> list[list[int]]:
    s = spec.strip()
    if s in ("auto-min", "auto-all"):
        plan = subset_reps(ctx.decomposition, ctx.h_table, ctx.rho.dim)
        if not plan:
            raise CliError("restriction has a single component; "
                           "no proper invariant subspace to pick")
        if s == "auto-min":
            plan = plan[:1]
        return [chars for _, chars in plan]
    try:
        return [[int(t) for t in s.replace(",", " ").split()]]
    except ValueError:
        raise CliError(f"bad chars spec {spec!r} "
                       "(use auto-min, auto-all, or indices like 0,2)")


# ------------------------------------------------------------- subcommands


def cmd_table_sn(args, opts: Options) -> int:
    em = Emitter(opts)
    em.csv_header = ["points"] + ENTRY_HEADER
    blocks = []
    failed = False
    for points in args.points:
        if points < 4:
            raise CliError("towers start at 4 points")
        if points <= 8:
            entries = symmetric_tower_entries(
                points, include_alternating=not args.no_alternating)
            checks = check_symmetric_tower(entries, points)
        else:
            entries = predicted_tower_entries(points)
            checks = []
        em.say(f"{points} points: {len(entries)} cells")
        for e in entries:
            em.say(_entry_line(e))
            em.csv_rows.append([points] + _entry_row(e))
        for c in checks:
            mark = "ok" if c.matched else "MISSING"
            note = f" (listed {c.listed}, corrected)" if c.corrected else ""
            em.say(f"  reference ({c.n},{c.m}) = {c.target}{note}: {mark}")
        failed |= any(e.status == "failed" for e in entries)
        failed |= any(not c.matched for c in checks)
        blocks.append({"points": points, **_entries_payload(entries, checks)})
        em.say()
    em.payload = blocks
    em.flush()
    return 1 if failed else 0


def cmd_table_pgl(args, opts: Options) -> int:
    em = Emitter(opts)
    em.csv_header = ["q"] + ENTRY_HEADER
    blocks = []
    failed = False
    for q in args.q:
        entries = projective_entries(q)
        checks = check_projective_table(entries, q)
        em.say(f"q={q} (N={q + 1}): {len(entries)} cells")
        for e in entries:
            em.say(_entry_line(e))
            if e.angles is not None and e.n == q - 1:
                em.say("               sin^2: "
                       + ", ".join(f"{a:.10g}" for a in e.angles)
                       + f"   product distance {e.d_tilde:.10g}")
            em.csv_rows.append([q] + _entry_row(e))
        for c in checks:
            if not c.available:
                em.say(f"  column {c.label} ({c.n},{c.m}): "
                       "not realizable at this q")
                continue
            mark = "ok" if c.matched else "MISSING"
            notes = []
            if c.angles_ok is not None:
                notes.append("angles " + ("ok" if c.angles_ok else "MISMATCH"))
            if c.d_tilde_sq_ok is not None:
                notes.append("d~ " + ("ok" if c.d_tilde_sq_ok else "MISMATCH"))
            tail = f" ({'; '.join(notes)})" if notes else ""
            em.say(f"  column {c.label} ({c.n},{c.m}) = {c.expected}: "
                   f"{mark}{tail}")
            failed |= not c.matched
            failed |= c.angles_ok is False or c.d_tilde_sq_ok is False
        failed |= any(e.status == "failed" for e in entries)
        blocks.append({"q": q, **_entries_payload(entries, checks)})
        em.say()
    em.payload = blocks
    em.flush()
    return 1 if failed else 0


def cmd_hook(args, opts: Options) -> int:
    lam = _parse_partition(args.partition)
    dim = hook_dimension(lam)
    hooks = lam.hooks()
    em = Emitter(opts)
    em.say(f"partition {list(lam.parts)} of {lam.n}")
    for row in hooks:
        em.say("  " + " ".join(f"{h:3d}" for h in row))
    em.say(f"dimension {dim}")
    em.payload = {"partition": list(lam.parts), "hooks": hooks,
                  "dimension": dim}
    em.csv_header = ["partition", "dimension"]
    em.csv_rows = [["".join(str(list(lam.parts)).split()), dim]]
    em.flush()
    return 0


def cmd_branch(args, opts: Options) -> int:
    lam = _parse_partition(args.partition)
    dim = hook_dimension(lam)
    branches = [(list(mu.parts), hook_dimension(mu)) for mu in branching(lam)]
    total = sum(d for _, d in branches)
    em = Emitter(opts)
    em.say(f"partition {list(lam.parts)}, dimension {dim}")
    for parts, d in branches:
        em.say(f"  -> {parts}  dimension {d}")
    em.say(f"branch dimensions sum to {total}"
           + ("" if total == dim else f" != {dim} (inconsistent)"))
    em.payload = {"partition": list(lam.parts), "dimension": dim,
                  "branches": [{"partition": p, "dimension": d}
                               for p, d in branches]}
    em.csv_header = ["branch", "dimension"]
    em.csv_rows = [["".join(str(p).split()), d] for p, d in branches]
    em.flush()
    return 0 if total == dim else 1


def cmd_predict(args, opts: Options) -> int:
    params = predict_from_dimensions(args.n, args.m, args.count)
    exact = Fraction(args.count, args.count - 1) \
        * args.m * (args.n - args.m) / args.n
    em = Emitter(opts)
    em.say(f"n={args.n} m={args.m} N={args.count}")
    em.say(f"simplex bound {format_value(params.d_c_sq_min)}")
    attainable = args.count <= args.n * (args.n + 1) // 2
    em.say("equality possible: " + ("yes" if attainable else
                                    "no (N exceeds n(n+1)/2)"))
    if exact > args.m:
        em.say(f"note: bound exceeds the distance maximum m={args.m}; "
               "no equidistant orbit exists here")
    em.payload = {"n": args.n, "m": args.m, "N": args.count,
                  "d_c_sq": str(exact), "attainable": attainable}
    em.csv_header = ["n", "m", "N", "d_c_sq", "attainable"]
    em.csv_rows = [[args.n, args.m, args.count, str(exact), attainable]]
    em.flush()
    return 0


def cmd_verify(args, opts: Options) -> int:
    g = _resolve_group(args.group, opts.cap)
    h = _resolve_subgroup(g, args.H)
    rho = _resolve_rep(g, args.rep, opts.seed)
    ctx = IsotypicContext(g, h, rho)
    subsets = _resolve_chars(ctx, args.chars)
    em = Emitter(opts)
    em.say(f"group {g.name} (order {g.order}), subgroup {h.name} "
           f"(order {h.order}), rep dim {rho.dim}, N={ctx.n_cosets}")
    results = []
    all_ok = True
    em.csv_header = ["chars", "n", "m", "N", "d_c_sq", "certified"]
    for chars in subsets:
        try:
            code = ctx.build(chars)
        except CodeError as err:
            raise CliError(f"chars {chars}: {err}")
        rep = verify_simplex(code)
        certified = abs(rep.rel_gap) <= opts.tol and rep.equidistant
        samples = [g.element(k % g.order)
                   for k in (1, g.order // 2, g.order - 1)]
        residual = max(verify_fonda2(g, h, rho, chars, s) for s in samples)
        p = code.params
        em.say(f"chars {chars}: n={p.n} m={p.m} N={p.N}")
        em.say(f"  d_c^2 min {format_value(p.d_c_sq_min)}, "
               f"bound {format_value(rep.bound)}, rel gap {rep.rel_gap:.2e}")
        em.say(f"  equidistant: {'yes' if rep.equidistant else 'no'}; "
               f"certified: {'yes' if certified else 'no'}")
        em.say(f"  product distance min {p.d_tilde_min:.10g}")
        em.say(f"  character-identity residual (3 samples) {residual:.2e}")
        results.append({"chars": chars, "n": p.n, "m": p.m, "N": p.N,
                        "d_c_sq_min": p.d_c_sq_min,
                        "d_tilde_min": p.d_tilde_min,
                        "rel_gap": rep.rel_gap, "certified": certified,
                        "equidistant": rep.equidistant,
                        "fonda_residual": residual})
        em.csv_rows.append([" ".join(map(str, chars)), p.n, p.m, p.N,
                            p.d_c_sq_min, certified])
        all_ok &= certified
    em.payload = {"group": g.name, "subgroup": h.name, "rep_dim": rho.dim,
                  "results": results}
    em.flush()
    return 0 if all_ok else 1


def cmd_clifford(args, opts: Options) -> int:
    code = build_clifford_orthoplex(args.index, args.r)
    p = code.params
    by_dist = {}
    for angles, count in code.census:
        d = round(angles.chordal_sq(), 9)
        by_dist[d] = by_dist.get(d, 0) + count
    em = Emitter(opts)
    em.say(f"index {args.index}, r={args.r}: N={p.N} subspaces of dimension "
           f"{p.m} in ambient {p.n}")
    em.say("distance multiset: " + ", ".join(
        f"{d:g} (x{c})" for d, c in sorted(by_dist.items())))
    threshold = p.n * (p.n + 1) // 2
    applicable = p.N > threshold
    em.say(f"orthoplex bound m(n-m)/n = {p.m * (p.n - p.m) / p.n:g}, "
           f"applicability N > n(n+1)/2 = {threshold}: "
           f"{'yes' if applicable else 'no'}")
    if applicable:
        em.say("bound attained: " + ("yes" if p.meets_orthoplex else "no"))
    if args.r > 1:
        em.say("r > 1: no optimality claim")
    em.payload = {"index": args.index, "r": args.r, "n": p.n, "m": p.m,
                  "N": p.N, "distances": sorted(by_dist.items()),
                  "orthoplex_applicable": applicable,
                  "meets_orthoplex": p.meets_orthoplex}
    em.csv_header = ["index", "r", "n", "m", "N", "d_min", "meets_orthoplex"]
    em.csv_rows = [[args.index, args.r, p.n, p.m, p.N, p.d_c_sq_min,
                    p.meets_orthoplex]]
    em.flush()
    return 0


def cmd_selftest(args, opts: Options) -> int:
    checks = []

    def run(label, fn):
        try:
            fn()
            checks.append((label, True, ""))
        except Exception as err:  # deliberate: report, do not crash
            checks.append((label, False, str(err)))

    def trivial_row(table):
        return next(i for i, chi in enumerate(table.irreducibles)
                    if abs(chi.values - 1).max() < 1e-9)

    def small_pipeline():
        g = PermGroup.symmetric(4)
        h = g.stabilizer(3)
        ht = compute_table(h)
        rho = young_orthogonal_rep(g, Partition((3, 1)))
        code = build_isotypic_code(g, h, rho, [trivial_row(ht)], ht)
        rep = verify_simplex(code)
        assert rep.certified and rep.equidistant
        assert abs(code.params.d_c_sq_min - 8 / 9) < 1e-10

    def hooks():
        assert hook_dimension(Partition((6, 4, 2))) == 2673
        dims = [hook_dimension(mu) for mu in branching(Partition((6, 4, 2)))]
        assert 990 in dims

    def prediction():
        p = predict_from_dimensions(2673, 990, 12)
        assert abs(p.d_c_sq_min - 680) < 1e-8

    def clifford():
        code = build_clifford_orthoplex(2)
        assert code.params.N == 18 and code.params.meets_orthoplex

    def characters():
        table = compute_table(PermGroup.symmetric(5))
        assert table.orthogonality_residual() < 1e-9

    def identity():
        g = PermGroup.symmetric(4)
        h = g.stabilizer(3)
        ht = compute_table(h)
        rho = young_orthogonal_rep(g, Partition((3, 1)))
        res = verify_fonda2(g, h, rho, [trivial_row(ht)], g.element(5), ht)
        assert res < 1e-9

    run("isotypic pipeline (4 points)", small_pipeline)
    run("hook dimensions and branching", hooks)
    run("bound prediction", prediction)
    run("clifford orthoplex", clifford)
    run("character table orthogonality", characters)
    run("distance character identity", identity)

    em = Emitter(opts)
    for label, ok, msg in checks:
        em.say(f"{'PASS' if ok else 'FAIL'}  {label}" + (f": {msg}" if msg
                                                         else ""))
    n_bad = sum(1 for _, ok, _ in checks if not ok)
    em.say(f"{len(checks) - n_bad}/{len(checks)} checks passed")
    em.payload = [{"check": label, "passed": ok, "detail": msg}
                  for label, ok, msg in checks]
    em.csv_header = ["check", "passed"]
    em.csv_rows = [[label, ok] for label, ok, _ in checks]
    em.flush()
    return 1 if n_bad else 0


# ------------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    # global flags accepted before or after the subcommand; SUPPRESS keeps
    # the subparser copy from clobbering a value given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed for representation extraction")
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="relative tolerance for certification verdicts")
    common.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                        help="group enumeration cap for loaded groups")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable JSON output")
    common.add_argument("--csv", action="store_true",
                        default=argparse.SUPPRESS,
                        help="CSV output")
    common.add_argument("--out", type=Path, default=argparse.SUPPRESS,
                        help="write output to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="grasspack", parents=[common],
        description="Equidistant Grassmannian packings from group orbits")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("table-sn", help="tower cells on k points")
    p.add_argument("points", type=int, nargs="+")
    p.add_argument("--no-alternating", action="store_true",
                   help="skip the alternating lane")
    p.set_defaults(fn=cmd_table_sn)

    p = add_parser("table-pgl", help="projective-line cells for odd q")
    p.add_argument("q", type=int, nargs="+")
    p.set_defaults(fn=cmd_table_pgl)

    p = add_parser("hook", help="hook lengths and dimension of a shape")
    p.add_argument("partition")
    p.set_defaults(fn=cmd_hook)

    p = add_parser("branch", help="one-row-down branching of a shape")
    p.add_argument("partition")
    p.set_defaults(fn=cmd_branch)

    p = add_parser("predict",
                       help="bound prediction from (n, m, N) alone")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("count", type=int, metavar="N")
    p.set_defaults(fn=cmd_predict)

    p = add_parser("verify", help="build one orbit code and certify it")
    p.add_argument("--group", required=True,
                   help="S6, A7, PGL2:5, PSL2:9, file:PATH, data:NAME")
    p.add_argument("--H", required=True, help="stab<point>")
    p.add_argument("--rep", required=True,
                   help="young:[3,1,1,1], dim:5, rotation")
    p.add_argument("--chars", default="auto-min",
                   help="auto-min, auto-all, or explicit indices like 0,2")
    p.set_defaults(fn=cmd_verify)

    p = add_parser("clifford", help="largest-distance orthoplex family")
    p.add_argument("index", type=int)
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(fn=cmd_clifford)

    p = add_parser("selftest", help="fast end-to-end sanity checks")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SUPPRESS defaults keep the subparser pass from clobbering globals
    # given before the subcommand; absent attrs fall back here
    as_json = getattr(args, "json", False)
    as_csv = getattr(args, "csv", False)
    if as_json and as_csv:
        parser.error("--json and --csv are mutually exclusive")
    fmt = "json" if as_json else "csv" if as_csv else "human"
    opts = Options(seed=getattr(args, "seed", config.DEFAULT_SEED),
                   tol=getattr(args, "tol", config.TOL.rel_distance),
                   cap=getattr(args, "cap", config.ENUM_CAP), fmt=fmt,
                   out=getattr(args, "out", None))
    try:
        return args.fn(args, opts)
    except (CliError, OSError, *INPUT_ERRORS) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
