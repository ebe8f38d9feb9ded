"""Global numeric tolerances, enumeration caps and data-directory resolution.

The tolerance ladder is fixed package-wide so that every certification step
quotes the same thresholds.  Command-line entry points may override the cap
and the master seed but not the ladder itself.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

#: hard limit on explicit element enumeration
ENUM_CAP = 2_000_000

#: dense tensor-power carriers are materialised only up to this dimension
TENSOR_BUDGET = 4096

#: matrix-free carriers (vectors only, permutation gathers) may be larger
VECTOR_CARRIER_BUDGET = 32768

#: character table computation refuses groups with more classes than this
MAX_CLASSES = 60

#: default master seed for every randomised step
DEFAULT_SEED = 1729

#: environment variable naming a directory of generator files
DATA_ENV = "GRASSPACK_DATA"


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


def data_path(name: str) -> Path:
    """Resolve a data file, preferring the environment override; the only
    reader of DATA_ENV."""
    env = os.environ.get(DATA_ENV)
    if env:
        cand = Path(env) / name
        if cand.exists():
            return cand
    return Path(__file__).parent / "data" / name
