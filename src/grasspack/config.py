"""Global numeric tolerances, enumeration caps, the working-memory budget,
the data-directory variable and the base class of every grasspack exception.

The tolerance ladder is fixed package-wide so that every certification step
quotes the same thresholds.  Command-line entry points may override the cap
and the master seed but not the ladder itself.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass


class GrasspackError(Exception):
    """Base of the exceptions every grasspack module raises."""


#: hard limit on explicit element enumeration
ENUM_CAP = 2_000_000

#: largest dense matrix side built: the dimension of a Young orthogonal form
#: and the n^2 of the commutant check's Kronecker blocks
TENSOR_BUDGET = 4096

#: matrix-free carriers (vectors only, permutation gathers) may be larger
VECTOR_CARRIER_BUDGET = 32768

#: codes refuse more codeword pairs than this, counted before any codeword
#: is formed: the census visits every pair, and the Clifford code (4, 2),
#: 19,841,850 pairs, is the largest it certifies; (4, 3) has 131 million
PAIR_BUDGET = 1 << 25

#: bytes one block of a streamed pass may hold: every pass over rows that
#: would not fit at once takes its slices from `blocks`, which reads this at
#: call time, so one setting sizes them all
BLOCK_BYTES = 1 << 21

#: character table computation refuses groups with more classes than this
MAX_CLASSES = 60

#: default master seed for every randomised step
DEFAULT_SEED = 1729

#: seeds tried (master seed, seed + 1, ...) before a randomised step gives up
SEED_TRIES = 5

#: environment variable naming a directory of generator files
DATA_ENV = "GRASSPACK_DATA"


def blocks(n: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices covering range(n), each as many rows of
    `row_bytes` bytes as fit `BLOCK_BYTES`, at least one row."""
    step = max(1, BLOCK_BYTES // max(row_bytes, 1))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


@dataclass(frozen=True)
class ToleranceLadder:
    """Fixed thresholds used by all certification helpers."""

    ortho: float = 1e-9        # orthogonality, unitarity, idempotency
    integer: float = 1e-6      # integer rounding, angle matching, dedup
    rel_distance: float = 1e-8 # relative gap distance-vs-bound
    zero_sin: float = 1e-10    # sin^2 below this counts as an exact zero
    rational: float = 1e-8     # |x - p/q| for exact-fraction reporting
    max_denominator: int = 10_000


TOL = ToleranceLadder()
