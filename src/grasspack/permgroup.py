"""Finite permutation groups: explicit element tables, and Schreier trees.

Elements are image rows (0-based) in one contiguous numpy array.  One
element index serves every lookup: a sorted int64 key per row (base images
once the table exists, a wrapping row hash while the closure builds it),
with every hit checked against the full row.  The closure also records the
right-multiplication tables, so conjugacy classes are orbits of index
gathers (`orbits`).  Tables serve the class-wide sweeps only: classes,
class sums, lookups and tree words.  A table keeps only what those read:
its rows, the closure tree, the right tables, the index and, once a sweep
asks, the inverse index.  Every pass over its rows, from the closure's
levels to class multiplication, runs in blocks of one byte budget
(`_BLOCK_BYTES`), and inverse rows are formed a block at a time and
dropped, so a group holds little beyond its table's own bytes.

Every group, with a table or without one (`PermGroup.deferred`), reaches
its point stabilizer H = G_p through a Schreier tree: the orbit of p, one
coset rep per orbit point, and H closed from the Schreier generators
u_{s(b)}^-1 s u_b, every one of which must then lie in H (Schreier's lemma,
so H = G_p and |G| = |orbit| |H|).  Both trees are stored one way, as
`parent` and `via` arrays, and one walker spells the word of any node.  The
cosets G/H are the tree's reps, and the double cosets H\\G/H are H's orbits
on the orbit of p.  H has a table, so membership in a table-free G sifts
through one level: b = g(p), then u_b^-1 g in H.

File formats and command-line output stay 1-based; everything internal is
0-based.
"""
from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import config

DTYPE = np.int16  # degrees stay far below 2**15


class PermError(config.GrasspackError):
    pass


class CapExceeded(PermError):
    """Closure grew past the enumeration cap."""

    def __init__(self, cap: int, reached: int):
        super().__init__(f"enumeration cap {cap} exceeded (≥ {reached} elements)")
        self.cap = cap
        self.reached = reached


class NotEnumerated(PermError):
    """Operation needs the full element table but the group has none."""


class NotASubgroup(PermError):
    pass


def _as_images(images) -> np.ndarray:
    """Validated image row: integers forming a bijection of 0..d-1."""
    arr = np.asarray(images)
    if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
        raise PermError(f"image array must be a non-empty row of integers, "
                        f"not {arr.dtype} of shape {arr.shape}")
    d = arr.shape[0]
    if d > 2 ** 15 or arr.min() < 0 or arr.max() >= d:
        raise PermError(f"images must lie in 0..{min(d, 2 ** 15) - 1}")
    if (np.bincount(arr, minlength=d) != 1).any():
        raise PermError("image array is not a bijection")
    return arr.astype(DTYPE, copy=False)


class Permutation:
    """A permutation of {0, ..., d-1} given by its image row."""

    __slots__ = ("images", "_key")

    def __init__(self, images):
        arr = _as_images(images)
        arr.setflags(write=False)
        self.images = arr
        self._key = arr.tobytes()

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(np.arange(degree, dtype=DTYPE))

    @classmethod
    def from_cycles(cls, degree: int, cycles, one_based: bool = False) -> "Permutation":
        img = np.arange(degree, dtype=DTYPE)
        off = 1 if one_based else 0
        for cyc in cycles:
            pts = [p - off for p in cyc]
            for p in pts:
                if not 0 <= p < degree:
                    raise PermError(f"point {p + off} outside degree {degree}")
            if len(set(pts)) != len(pts):
                raise PermError(f"repeated point in cycle {tuple(cyc)}")
            for a, b in zip(pts, pts[1:] + pts[:1]):
                img[a] = b
        return cls(img)

    @property
    def degree(self) -> int:
        return self.images.shape[0]

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self*other)(p) = self(other(p))
        return Permutation(self.images[other.images])

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.images))

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.degree, dtype=DTYPE)).all())

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            p = int(self.images[start])
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = int(self.images[p])
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self, one_based: bool = True) -> str:
        off = 1 if one_based else 0
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + off) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Permutation{self.cycle_string(one_based=False)}"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse a disjoint-cycle string like ``(1 2 3)(4 5)``; points 1-based."""
    stripped = text.replace(",", " ").strip()
    if stripped in ("", "()"):
        return Permutation.identity(degree)
    body = _CYCLE_RE.sub("", stripped).strip()
    if body:
        raise PermError(f"unparsable cycle text: {text!r}")
    cycles = []
    for grp in _CYCLE_RE.findall(stripped):
        try:
            pts = [int(tok) for tok in grp.split()]
        except ValueError as err:               # names the bad token
            raise PermError(f"cycle text {text!r}: {err}") from None
        if pts:
            cycles.append(pts)
    return Permutation.from_cycles(degree, cycles, one_based=True)


@dataclass
class ConjugacyClasses:
    """Partition of an enumerated group into conjugacy classes."""

    reps: list[Permutation]
    sizes: np.ndarray            # int64, per class
    class_of: np.ndarray         # int32, aligned with the element table
    orders: np.ndarray           # element order per class
    rep_index: np.ndarray        # table index of each rep
    inverse: np.ndarray          # class holding the inverses of each class
    square: np.ndarray           # class holding the squares of each class
    conjugations: list[np.ndarray]   # [s][i]: index of s^-1 g_i s, generator s

    @property
    def n_classes(self) -> int:
        return len(self.reps)


@dataclass(frozen=True)
class CosetTransversal:
    """The Schreier tree of `point` and its stabilizer H = G_p: the left
    coset reps u_k of H in G, one per orbit point, in the tree's order
    (u_0 = 1).  The tree is stored as the closure stores its own:
    u_k = s u_parent with s = via[k] and parent[k] < k, so `word(k)` spells
    u_k and the image of u_k in any representation is one product along the
    tree.  Generator j of H is the Schreier generator u_c^-1 s u_b of
    schreier[j] = (c, s, b)."""

    subgroup: "PermGroup"
    point: int
    slot: np.ndarray                # orbit position of each point, -1 outside
    parent: np.ndarray
    via: np.ndarray
    rep_rows: np.ndarray            # image row of each rep u_k
    inv_rows: np.ndarray            # image row of each u_k^-1
    schreier: list[tuple[int, int, int]]

    @property
    def count(self) -> int:
        return len(self.rep_rows)

    def word(self, k: int) -> list[int]:
        """Letters of u_k, read left to right: [via[k], *word(parent[k])]."""
        return _walk(self.parent, self.via, k)


class PermGroup:
    """A permutation group, optionally with its full element table."""

    def __init__(self, degree: int, generators: list[Permutation], name: str = "",
                 _table: "_Table | None" = None):
        if degree >= 2 ** 15:
            raise PermError("degree too large for the element store")
        self.degree = degree
        self.generators = generators
        self.name = name or "G"
        self._table = _table
        self._inv_index = None
        self._levels: dict[int, CosetTransversal] = {}   # point -> its level
        self._classes: ConjugacyClasses | None = None
        self._class_mult = None        # kept by `characters`, as is
        self._characters = None        # the character table, and by `reps`
        # the tensor powers, None past the budget, with no reference back
        # here, and the copies that refer here, while a caller holds them
        self._carriers: list = []
        self._held_carriers = weakref.WeakValueDictionary()
        self.provenance: dict = {}     # how a stabilizer was proved

    # -- construction -------------------------------------------------

    @classmethod
    def generated(cls, generators, name: str = "", degree: int | None = None,
                  cap: int = config.ENUM_CAP) -> "PermGroup":
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        if degree is None:
            if not gens:
                raise PermError("need a degree for a generator-free group")
            degree = gens[0].degree
        gens = [g for g in gens if not g.is_identity()]
        for g in gens:
            if g.degree != degree:
                raise PermError("generator degrees disagree")
        table = _closure([g.images for g in gens], degree, cap)
        return cls(degree, gens, name=name, _table=table)

    @classmethod
    def deferred(cls, generators, name: str = "", degree: int | None = None) -> "PermGroup":
        """Generators only; no element table (order unknown)."""
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        if degree is None:
            degree = gens[0].degree
        return cls(degree, gens, name=name, _table=None)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls.generated([], name="1", degree=degree)

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        if n < 1:
            raise PermError("need n >= 1")
        if n == 1:
            return cls.trivial(1)
        gens = [Permutation.from_cycles(n, [[0, 1]])]
        if n > 2:
            gens.append(Permutation.from_cycles(n, [list(range(n))]))
        g = cls.generated(gens, name=f"S{n}")
        if g.order != math.factorial(n):
            raise PermError(f"S{n} closure has order {g.order}")
        return g

    @classmethod
    def alternating(cls, n: int) -> "PermGroup":
        if n < 3:
            raise PermError("need n >= 3")
        gens = [Permutation.from_cycles(n, [[0, 1, 2]])]
        if n > 3:
            cyc = list(range(n)) if n % 2 == 1 else list(range(1, n))
            gens.append(Permutation.from_cycles(n, [cyc]))
        g = cls.generated(gens, name=f"A{n}")
        if g.order != math.factorial(n) // 2:
            raise PermError(f"A{n} closure has order {g.order}")
        return g

    @classmethod
    def cyclic(cls, n: int) -> "PermGroup":
        return cls.generated([Permutation.from_cycles(n, [list(range(n))])], name=f"C{n}")

    # -- basic queries --------------------------------------------------

    @property
    def is_enumerated(self) -> bool:
        return self._table is not None

    def _require_table(self) -> "_Table":
        if self._table is None:
            raise NotEnumerated(f"{self.name} has no element table")
        return self._table

    @property
    def rows(self) -> np.ndarray:
        return self._require_table().rows

    @property
    def order(self) -> int:
        """The table's length; without a table |orbit| |G_p|, which a point
        stabilizer proves."""
        if self._table is None and self._levels:
            level = next(iter(self._levels.values()))
            return level.count * level.subgroup.order
        return self.rows.shape[0]

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def element(self, i: int) -> Permutation:
        return Permutation(self.rows[i])

    def __contains__(self, perm: Permutation) -> bool:
        if perm.degree != self.degree:
            return False
        if self._table is None:
            return self._sift(perm) is not None
        return bool(self._table.index.find(perm.images[None])[0] >= 0)

    def index_of(self, perm: Permutation) -> int:
        i = int(self._require_table().index.find(perm.images[None])[0])
        if i < 0:
            raise PermError(f"element not in {self.name}")
        return i

    # -- words ------------------------------------------------------------
    #
    # A word is a list of letters, s >= 0 for generator s and ~s for its
    # inverse, whose left-to-right product is the element.

    def tree_word(self, index: int) -> list[int]:
        """Letters of element `index` along the closure's spanning tree."""
        table = self._require_table()
        return _walk(table.parent, table.via, index)[::-1]

    def word_of(self, perm: Permutation) -> list[int]:
        """A word for `perm`: its tree word in an element table, else the
        tree rep u_b times the H-word, each H letter spelled as its Schreier
        generator.  NotEnumerated when a table-free group has no stabilizer
        yet; PermError for a non-member."""
        if self._table is not None:
            return self.tree_word(self.index_of(perm))
        found = self._sift(perm)
        if found is None:
            raise PermError(f"element not in {self.name}")
        level, k, i = found
        word = level.word(k)
        for j in level.subgroup.tree_word(i):
            c, s, b = level.schreier[j]         # H's generator u_c^-1 s u_b
            word += [~x for x in reversed(level.word(c))] + [s] + level.word(b)
        return word

    def _sift(self, perm: Permutation):
        """(transversal, k, i) with perm = u_k h_i, h_i element i of its
        stabilizer; None if perm is not in the group."""
        if not self._levels:
            raise NotEnumerated(f"{self.name} has no element table and no "
                                "point stabilizer to sift through")
        level = next(iter(self._levels.values()))
        if perm.degree != self.degree:
            return None
        k = int(level.slot[perm.images[level.point]])
        if k < 0:
            return None
        rest = level.inv_rows[k][perm.images.astype(np.intp)]   # u_k^-1 perm
        i = int(level.subgroup._table.index.find(rest[None])[0])
        return None if i < 0 else (level, k, i)

    def inverse_rows(self, block: slice = slice(None)) -> np.ndarray:
        """Image rows of the inverses of the table's rows in `block` (all
        of them by default), formed on each call and never kept:
        inv[i, rows[i, c]] = c, set a column c at a time through flat
        offsets, so no intp row is formed."""
        rows = self.rows[block]
        n, d = rows.shape
        inv = np.empty_like(rows)
        starts = np.arange(0, n * d, d)                 # flat offset of each row
        for c in range(d):
            inv.reshape(-1)[starts + rows[:, c]] = c
        return inv

    def row_blocks(self) -> list[slice]:
        """Consecutive slices covering the element table, one block of
        `_BLOCK_BYTES` each: the blocks of the passes that look rows up."""
        step = _block_rows(self.degree)
        return [slice(a, a + step) for a in range(0, self.order, step)]

    def lookup_rows(self, rows2d: np.ndarray) -> np.ndarray:
        """Table indices for a batch of image rows; PermError for a non-member."""
        idx = self._require_table().index.find(np.asarray(rows2d))
        if (idx < 0).any():
            raise PermError("row batch contains elements outside the group")
        return idx

    # -- conjugacy ------------------------------------------------------

    def _inverse_index(self) -> np.ndarray:
        """inv[i] = index of the inverse of element i, looked up a block of
        inverse rows at a time."""
        if self._inv_index is None:
            inv = np.empty(self.order, dtype=np.int64)
            for block in self.row_blocks():
                inv[block] = self.lookup_rows(self.inverse_rows(block))
            self._inv_index = inv
        return self._inv_index

    def conjugacy_classes(self) -> ConjugacyClasses:
        """Classes numbered by their least element index, which is the rep:
        the orbits of the index maps i -> s^-1 g_i s, one per generator s
        (three gathers each), which the classes keep in the least unsigned
        type that holds every index.  The class of each rep's square is one
        lookup of the reps' squared rows."""
        if self._classes is None:
            inv = self._inverse_index()
            conj = [r[inv[r[inv]]].astype(np.min_scalar_type(self.order))
                    for r in self._require_table().right]
            first, class_of = orbits(conj, self.order)
            reps = [self.element(int(i)) for i in first]
            rows = self.rows[first]
            squares = self.lookup_rows(np.take_along_axis(rows, rows, axis=1))
            self._classes = ConjugacyClasses(
                reps, np.bincount(class_of).astype(np.int64), class_of.astype(np.int32),
                np.array([p.order() for p in reps], dtype=np.int64),
                first, class_of[inv[first]], class_of[squares], conj)
        return self._classes

    # -- subgroups ------------------------------------------------------

    def stabilizer(self, point: int) -> "PermGroup":
        """G_p, closed from the Schreier generators (see `_schreier_level`)."""
        if point not in self._levels:
            self._levels[point] = _schreier_level(self, point,
                                                  f"{self.name}_stab{point}")
        return self._levels[point].subgroup

    def derived_subgroup(self) -> "PermGroup":
        """Commutator subgroup, generated by the conjugacy classes of the
        generator commutators."""
        gens = [(g.images, g.inverse().images) for g in self.generators]
        seeds = np.array([a[b[ai[bi]]] for a, ai in gens for b, bi in gens],
                         dtype=DTYPE).reshape(-1, self.degree)
        class_of = self.conjugacy_classes().class_of
        rows = self.rows[np.isin(class_of, class_of[self.lookup_rows(seeds)])]
        return _regenerated(rows, self.degree, f"{self.name}'", cap=self.order)[0]

    # -- cosets ----------------------------------------------------------

    def _level_of(self, h: "PermGroup") -> CosetTransversal:
        level = next((lv for lv in self._levels.values() if lv.subgroup is h),
                     None)
        if level is None:
            raise NotASubgroup(f"{h.name} is not a point stabilizer built by "
                               f"{self.name}.stabilizer")
        return level

    def coset_transversal(self, h: "PermGroup") -> CosetTransversal:
        """The Schreier level built with H, for H one of this group's point
        stabilizers; NotASubgroup for any other H."""
        return self._level_of(h)

    def orbitals(self, h: "PermGroup") -> np.ndarray:
        """The N x N matrix whose [a, b] entry numbers the H-orbit of
        u_a^-1 u_b(p), for the Schreier tree's reps u of H = G_p: the
        suborbit of the coset pair (u_a H, u_b H), which is the orbit of
        that pair under G.  H-orbits on the orbit of p (h u_b H =
        u_{h(b)} H) are numbered by least orbit position, so row 0 numbers
        the points themselves.  Table-free."""
        level = self._level_of(h)
        orbit = level.rep_rows[:, level.point].astype(np.intp)
        acts = [level.slot[s.images[orbit]] for s in h.generators]
        suborbit = orbits(acts, len(orbit))[1]
        return suborbit[level.slot[level.inv_rows[:, orbit]]]

    def double_coset_sizes(self, h: "PermGroup") -> list[int]:
        """Sizes of the H\\G/H double cosets, |H| times each suborbit,
        ordered by least orbit position: row 0 of `orbitals`."""
        return (np.bincount(self.orbitals(h)[0]) * h.order).tolist()

    def is_two_transitive(self, h: "PermGroup") -> bool:
        """True iff G acts 2-transitively on G/H: H has one orbit on the
        other points of the orbit of p."""
        return len(self.double_coset_sizes(h)) == 2


# -- element index and closure --------------------------------------------


_HASH_MULT = np.int64(-0x61C8864680B583EB)    # 0x9E3779B97F4A7C15 as int64
#: bytes one block of a pass over |G| rows may hold: a closure slice counts
#: its product rows as stored; a lookup block (the inverse index, class
#: multiplication, a row check) counts `_LOOKUP_POINT_BYTES` a point, an
#: intp entry, about what a lookup forms per point with its query and
#: gathered rows, its mask and its int64 keys and indices
_BLOCK_BYTES = 1 << 21
_LOOKUP_POINT_BYTES = 8


def _block_rows(degree: int, point_bytes: int = _LOOKUP_POINT_BYTES) -> int:
    """Rows of `degree` points at `point_bytes` each that fit `_BLOCK_BYTES`,
    at least one."""
    return max(1, _BLOCK_BYTES // (degree * point_bytes))


def _row_keys(rows: np.ndarray, cols, mult) -> np.ndarray:
    """Horner key of each row over the columns `cols`; int64 arithmetic wraps."""
    key = np.zeros(rows.shape[0], dtype=np.int64)
    for c in cols:
        key *= mult
        key += rows[:, c]
    return key


def _mismatch(table: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask of the `rows` that differ from table[idx], one block at a time."""
    bad = np.empty(len(idx), dtype=bool)
    step = _block_rows(table.shape[1])
    for a in range(0, len(idx), step):
        part = slice(a, a + step)
        bad[part] = (table[idx[part]] != rows[part]).any(axis=1)
    return bad


class ElementIndex:
    """Sorted int64 keys of the rows of `table`, and the row of each key.

    The keys are pairwise distinct, and `find` checks every hit against the
    full row, so a key collision or a non-member yields -1, never a wrong
    index."""

    def __init__(self, table: np.ndarray, cols, mult):
        self.table, self.cols, self.mult = table, cols, mult
        self.keys = _row_keys(table, cols, mult)
        self.order = np.argsort(self.keys)
        self.keys.sort()                # in place: keys[order], one array less
        if (self.keys[1:] == self.keys[:-1]).any():
            raise PermError("element key collision")

    @classmethod
    def by_base(cls, rows: np.ndarray) -> "ElementIndex":
        """Keys are the images of a base (points whose images fix each
        element) read in radix `degree`, or a row hash if that overflows."""
        n, d = rows.shape
        base, live = [], np.arange(n)   # live: rows fixing the base so far
        for p in range(d):
            col = rows[live, p]
            if (col != p).any():
                base.append(p)
                live = live[col == p]
        if d ** len(base) < 2 ** 63:
            return cls(rows, base, np.int64(d))
        return cls(rows, range(d), _HASH_MULT)

    def find(self, query: np.ndarray) -> np.ndarray:
        """Table index per query row, -1 where the row is not in the table."""
        if query.ndim != 2 or query.shape[1] != self.table.shape[1] \
                or query.dtype.kind not in "iu":
            raise PermError(f"expected integer rows of width {self.table.shape[1]}, "
                            f"got a {query.dtype} array of shape {query.shape}")
        qkeys = _row_keys(query, self.cols, self.mult)
        srt = np.argsort(qkeys)
        pos = np.searchsorted(self.keys, qkeys[srt])
        idx = np.empty(len(srt), dtype=np.int64)
        idx[srt] = self.order[np.minimum(pos, len(self.keys) - 1)]
        idx[_mismatch(self.table, idx, query)] = -1   # also every key miss
        return idx


def orbits(maps, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits on range(n) of the group generated by the index permutations
    `maps`: the least point of each orbit, ascending, and each point's orbit.

    Min-label propagation with pointer jumping: across each edge i -> m[i]
    the larger label, a root, is pointed at the smaller, and labels jump to
    their roots, until no edge joins two roots.  Labels only fall and stay
    in their orbit, so each root is its orbit's least point."""
    label = np.arange(n, dtype=np.int32)
    joined = True
    while joined:
        joined = False
        for m in maps:
            other = label[m]
            lo, hi = np.minimum(label, other), np.maximum(label, other)
            join = lo != hi
            if join.any():
                joined = True
                label[hi[join]] = lo[join]
                while ((jump := label[label]) != label).any():
                    label = jump
    root = label == np.arange(n)
    return np.flatnonzero(root), (np.cumsum(root) - 1)[label]


class _Table(NamedTuple):
    rows: np.ndarray                # element rows in breadth-first order
    parent: np.ndarray              # rows[i] = rows[parent[i]] * gen[via[i]]
    via: np.ndarray
    right: list[np.ndarray]         # right[s][i] = index of rows[i] * gen[s]
    index: ElementIndex


def _closure(gen_rows: list[np.ndarray], degree: int, cap: int) -> _Table:
    """Breadth-first element table, a level at a time.  Each level's new
    rows come in generator-major, first-occurrence order of the products
    frontier x generators; the products also fill the right tables.  A
    level whose product rows pass `_BLOCK_BYTES` is formed in slices of that
    sequence, each checked against every row before it, so the order is the
    same.  The store and the per-element arrays grow in place (`_grow`) and
    are cut to the group's order at the end, with no copy of the table."""
    gens = [np.asarray(g, dtype=np.intp) for g in gen_rows]
    store = np.empty((max(64, len(gens) + 1), degree), dtype=DTYPE)
    store[0] = np.arange(degree)
    cols = range(degree)
    keys = _row_keys(store[:1], cols, _HASH_MULT)   # sorted keys of the rows so far
    order = np.zeros(1, dtype=np.int64)             # row of each key
    parent = np.full(len(store), -1, dtype=np.int64)
    via = np.full(len(store), -1, dtype=np.int32)
    right = [np.empty(len(store), dtype=np.int64) for _ in gens]
    step = _block_rows(degree, store.itemsize)
    lo, size = 0, 1
    while gens and lo < size:
        f, n = size - lo, size
        for a in range(0, f * len(gens), step):
            b = min(a + step, f * len(gens))
            # products a..b-1 of the level: frontier rows i..j-1 times gen s
            pieces = [(s, max(a - s * f, 0), min(b - s * f, f))
                      for s in range(a // f, (b - 1) // f + 1)]
            prods = np.empty((b - a, degree), dtype=DTYPE)
            for s, i, j in pieces:
                store[lo + i:lo + j].take(gens[s], axis=1,
                                          out=prods[s * f + i - a:s * f + j - a])
            pkeys = _row_keys(prods, cols, _HASH_MULT)
            srt = np.argsort(pkeys)
            skeys = pkeys[srt]
            run = np.r_[True, skeys[1:] != skeys[:-1]]  # a new key starts here
            ukeys, first = skeys[run], np.minimum.reduceat(srt, np.flatnonzero(run))
            pos = np.searchsorted(keys, ukeys)
            val = order[np.minimum(pos, n - 1)]
            fresh = np.flatnonzero(keys[np.minimum(pos, n - 1)] != ukeys)
            born = np.sort(first[fresh])                # new rows, in table order
            if n + len(born) > cap:
                raise CapExceeded(cap, cap + 1)
            val[fresh[np.argsort(first[fresh])]] = np.arange(n, n + len(born))
            idx = np.empty(len(srt), dtype=np.int64)
            idx[srt] = val[np.cumsum(run) - 1]
            if n + len(born) > len(store):
                for arr in (store, parent, via, *right):
                    _grow(arr, n + len(born), cap)
            store[n:n + len(born)] = prods[born]
            if _mismatch(store, idx, prods).any():
                raise PermError("element key collision")
            keys = np.insert(keys, pos[fresh], ukeys[fresh])
            order = np.insert(order, pos[fresh], val[fresh])
            parent[n:n + len(born)] = lo + (a + born) % f
            via[n:n + len(born)] = (a + born) // f
            for s, i, j in pieces:
                right[s][lo + i:lo + j] = idx[s * f + i - a:s * f + j - a]
            n += len(born)
        lo, size = size, n
    del keys, order                     # freed before the base index is built
    for arr in (store, parent, via, *right):
        arr.resize((size,) + arr.shape[1:], refcheck=False)
    return _Table(store, parent, via, right, ElementIndex.by_base(store))


def _grow(arr: np.ndarray, need: int, cap: int):
    """Lengthen `arr` in place by half, to at least `need` and at most `cap`
    rows: one reallocation, never the old and a new buffer side by side.
    The caller holds no view of `arr` (the check is off only because its
    own names count as references)."""
    arr.resize((max(need, min(cap, len(arr) * 3 // 2)),) + arr.shape[1:],
               refcheck=False)


def _walk(parent: np.ndarray, via: np.ndarray, k: int) -> list[int]:
    """Letters via[k], via[parent[k]], ... up to the root of a tree stored
    as `parent` and `via` arrays, the root's via being -1."""
    word = []
    while via[k] != -1:
        word.append(int(via[k]))
        k = int(parent[k])
    return word


def _regenerated(rows: np.ndarray, degree: int, name: str,
                 cap: int) -> tuple[PermGroup, list[int]]:
    """The group generated by `rows`, on a small generating set, and the
    index in `rows` of each generator: the first row outside the closure of
    those before it."""
    picked: list[int] = []
    table = _closure(rows[picked], degree, cap)
    while (missing := np.flatnonzero(table.index.find(rows) < 0)).size:
        picked.append(int(missing[0]))
        table = _closure(rows[picked], degree, cap)
    gens = [Permutation(rows[i]) for i in picked]
    return PermGroup(degree, gens, name=name, _table=table), picked


def _schreier_level(g: PermGroup, point: int, name: str) -> CosetTransversal:
    """Schreier tree of `point` under g's generators, breadth first (each
    orbit point in turn, each generator in turn; u_{s(b)} = s u_b), and
    the stabilizer closed from the Schreier generators u_{s(b)}^-1 s u_b,
    listed b-major.  `_regenerated` returns only once every Schreier
    generator is found in the closure's index, so the closure is all of
    G_p."""
    gens = np.array([s.images for s in g.generators],
                    dtype=np.intp).reshape(-1, g.degree)
    slot = np.full(g.degree, -1, dtype=np.int64)
    slot[point] = 0
    reps, parent, via = [np.arange(g.degree, dtype=DTYPE)], [-1], [-1]
    for k, rep in enumerate(reps):          # reps grows as it is walked
        for s, img in enumerate(gens):
            if slot[img[rep[point]]] < 0:
                slot[img[rep[point]]] = len(reps)
                reps.append(img[rep].astype(DTYPE))
                parent.append(k)
                via.append(s)
    reps = np.array(reps)
    inv_reps = np.argsort(reps, axis=1).astype(DTYPE)
    prods = gens[:, reps].swapaxes(0, 1).reshape(-1, g.degree)  # s u_b
    schreier = np.take_along_axis(inv_reps[slot[prods[:, point]]], prods,
                                  axis=1)
    h, picked = _regenerated(schreier, g.degree, name, cap=config.ENUM_CAP)
    h.provenance = {"orbit_length": len(reps),
                    "schreier_generators": len(schreier)}
    return CosetTransversal(
        h, point, slot, np.array(parent), np.array(via), reps, inv_reps,
        [(int(slot[prods[i, point]]), i % len(gens), i // len(gens))
         for i in picked])


# -- finite fields and the projective families ----------------------------


class GF:
    """Small finite field GF(p^k) with dense add/mul tables.  Element i is
    the polynomial over F_p whose coefficients are i's base-p digits, low
    first, and products are reduced mod x^k + f for the first f, in the
    order of the integers its digits spell, whose product table gives every
    nonzero element an inverse: a finite commutative ring is a field
    exactly then, so x^k + f is the first monic irreducible."""

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.q, self.p, self.k = q, p, k
        weight = p ** np.arange(k)
        digits = np.arange(q)[:, None] // weight % p
        self.add = (digits[:, None] + digits) % p @ weight
        for f in digits:
            power = list(np.eye(k, dtype=np.int64))    # x^n mod x^k + f
            while len(power) < 2 * k - 1:
                power.append((np.r_[0, power[-1][:-1]] - power[-1][-1] * f) % p)
            reduced = np.array(power)[np.add.outer(np.arange(k), np.arange(k))]
            self.mul = np.einsum("ai,bj,ijt->abt", digits, digits,
                                 reduced) % p @ weight
            if (self.mul[1:] == 1).any(axis=1).all():
                break
        self.neg = np.argmax(self.add == 0, axis=1)
        self.inv = np.argmax(self.mul == 1, axis=1)     # 0 for the zero element

    def primitive(self) -> int:
        """The least element of multiplicative order q - 1."""
        for c in range(1, self.q):
            x, n = c, 1
            while x != 1:
                x = int(self.mul[x, c])
                n += 1
            if n == self.q - 1:
                return c
        raise PermError("no primitive element found")


def _prime_power(q: int) -> tuple[int, int]:
    p = next((p for p in range(2, q + 1) if q % p == 0), None)
    k = round(math.log(q, p)) if p else 0
    if not p or p ** k != q:
        raise PermError(f"{q} is not a prime power")
    return p, k


def make_pgl2(q: int) -> PermGroup:
    """PGL_2(F_q) acting on the projective line: points 0..q-1 plus q for infinity."""
    return _projective_group(q, special=False)


def make_psl2(q: int) -> PermGroup:
    """PSL_2(F_q) acting on the projective line, as `make_pgl2`."""
    return _projective_group(q, special=True)


def projective_class_count(q: int, special: bool) -> int:
    """Conjugacy classes of PSL2(q) (`special`) or PGL2(q), from q alone:
    q + 1 for even q, else (q + 5) / 2 and q + 2."""
    if q % 2 == 0:
        return q + 1
    return (q + 5) // 2 if special else q + 2


def _projective_group(q: int, special: bool) -> PermGroup:
    """PSL2(q) (`special`) or PGL2(q), generated by x -> x + 1, x -> c x
    (c^2 x for PSL, c primitive) and x -> 1/x (-1/x for PSL, with det 1),
    and checked for its order; PermError before the field's q x q tables
    are built when that order is past the enumeration cap."""
    family = "PSL2" if special else "PGL2"
    order = q * (q * q - 1) // (math.gcd(2, q - 1) if special else 1)
    if order > config.ENUM_CAP:
        raise PermError(f"{family}({q}) has {order} elements, past the "
                        f"enumeration cap {config.ENUM_CAP}")
    f = GF(q)
    c = f.primitive()
    t, m, w = (np.arange(q + 1, dtype=DTYPE) for _ in range(3))
    t[:q] = f.add[:, 1]
    m[:q] = f.mul[:, f.mul[c, c] if special else c]
    w[0], w[q] = q, 0                                   # 0 <-> infinity
    w[1:q] = f.neg[f.inv[1:]] if special else f.inv[1:]
    g = PermGroup.generated([t, m, w], name=f"{family}_{q}")
    if g.order != order:
        raise PermError(f"{family}({q}) closure has order {g.order}, "
                        f"expected {order}")
    return g


# -- generator files -------------------------------------------------------


def loads_group(text: str, name: str = "", cap: int = config.ENUM_CAP) -> PermGroup:
    """The group of a generator file, closed up to `cap` elements and kept
    without a table past it; PermError for a negative cap."""
    if cap < 0:
        raise PermError(f"cap must be non-negative, got {cap}")
    degree, gens = parse_group(text)
    try:
        return PermGroup.generated(gens, name=name, degree=degree, cap=cap)
    except CapExceeded:
        return PermGroup.deferred(gens, name=name, degree=degree)


def parse_group(text: str) -> tuple[int, list[Permutation]]:
    """Parse a generator file: ``degree <d>`` then one cycle line per generator."""
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise PermError(f"line {lineno}: expected 'degree <d>' header")
            degree = int(m.group(1))
            if degree < 1:
                raise PermError(f"line {lineno}: degree must be positive")
            continue
        gens.append(parse_cycles(line, degree))
    if degree is None:
        raise PermError("missing 'degree <d>' header")
    return degree, gens


def load_group(path, name: str = "", cap: int = config.ENUM_CAP) -> PermGroup:
    p = Path(path)
    try:
        return loads_group(p.read_text(), name=name or p.stem, cap=cap)
    except UnicodeDecodeError:
        raise PermError(f"{p} is not a text file") from None


def dumps_group(group: PermGroup, comment: str = "") -> str:
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"degree {group.degree}")
    for g in group.generators:
        lines.append(g.cycle_string(one_based=True))
    return "\n".join(lines) + "\n"
