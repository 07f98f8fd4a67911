"""Workload sizes.

``full`` is what the benchmark runs.  ``toy`` runs every workload through
the same code on small groups, for the benchmark's own tests.  The reasons
behind each full-size choice, and the measurements they rest on, are in
README.md.
"""

from __future__ import annotations

# Bump when the layout of anything under .cache/ changes.
CACHE_FORMAT = "1"

# Seed of the cached W-graph's verification (which short y get their
# mu-values re-derived from the bar-solve oracle).  Fixed, because the
# cache is built once per source version, not once per run.
WGRAPH_VERIFY_SEED = 20051
WGRAPH_VERIFY_COUNT = 12
WGRAPH_VERIFY_MAXLEN = 9

FULL = {
    "h4-columns": {
        "group": "H4",
        # See README.md for how these were chosen and what they cost.
        "columns": [5, 13884],
        "pass_seconds": 25.0,
    },
    "h4-ptable": {
        "group": "H4",
        "maxlen": 24,
        "oracle_count": 8,
        "oracle_maxlen": 12,
        "pass_seconds": 8.0,
    },
    "resume-B5": {
        "group": "B5",
        "range": (0, 399),
        "prefix": 345,
        "threads": 2,
        "tcombo_pairs": 6,
        "tcombo_xlen": 4,
        "pass_seconds": 8.0,
    },
}

TOY = {
    "h4-columns": {
        "group": "H3",
        "columns": [7, 9, 23, 57, 119],
        "pass_seconds": 1.0,
    },
    "h4-ptable": {
        "group": "H3",
        "maxlen": 9,
        "oracle_count": 4,
        "oracle_maxlen": 6,
        "pass_seconds": 1.0,
    },
    "resume-B5": {
        "group": "B3",
        "range": (0, 30),
        "prefix": 12,
        "threads": 2,
        "tcombo_pairs": 3,
        "tcombo_xlen": 3,
        "pass_seconds": 1.0,
    },
}

SIZES = {"full": FULL, "toy": TOY}
WORKLOADS = tuple(FULL)


def passes(seconds: float, pass_seconds: float) -> int:
    """Whole passes a run of ``seconds`` makes; fixed by the arguments
    alone, so every run of one setting attempts the same operations."""
    return max(1, round(seconds / pass_seconds))
