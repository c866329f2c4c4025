"""The canonical parameter grid of the paper's evaluation (§5).

Every figure/table sweeps some subset of the same five axes — dataset,
window length ω, sketch precision (β = 2^precision), seed-selection
method, rng seed.  The experiment registry and the ``paper`` matrix
(:mod:`repro.xp.spec`) read their defaults from here, and the tests
that pin the grid import the same names.

Values mirror the paper exactly where feasible and the documented
reductions otherwise (see DESIGN.md §2 and EXPERIMENTS.md): e.g.
``SPREAD_KS`` is a reduced subset of Figure 5's k ∈ {5..50}.
"""

from __future__ import annotations

from repro.analysis.experiments import ALL_METHODS

__all__ = [
    "DEFAULT_PRECISION",
    "BETAS",
    "WINDOW_PERCENTS",
    "WINDOW_SWEEP",
    "SEED_COUNTS",
    "QUERY_WINDOW_PERCENT",
    "SPREAD_KS",
    "SPREAD_WINDOW_PERCENTS",
    "SPREAD_PROBABILITIES",
    "SPREAD_METHODS",
    "SEED_TIME_METHODS",
    "SEED_TIME_K",
    "SEED_TIME_WINDOW_PERCENT",
    "OVERLAP_K",
    "ACCURACY_DATASETS",
    "SPREAD_DATASETS",
    "QUERY_DATASETS",
    "SMALL_DATASETS",
]

#: Sketch precision used everywhere a single β is reported (β = 2⁹ = 512).
DEFAULT_PRECISION = 9

#: Table 3's register-count sweep (β, a power of two).
BETAS = (16, 32, 64, 128, 256, 512)

#: Tables 3–5's window lengths, as % of each dataset's time span.
WINDOW_PERCENTS = (1, 10, 20)

#: Figure 3's full window sweep (one-pass build time vs ω).
WINDOW_SWEEP = (1, 5, 10, 20, 40, 60, 80, 100)

#: Figure 4's seed-set sizes (oracle query time vs |S|).
SEED_COUNTS = (10, 100, 1_000, 5_000, 10_000)

#: Figure 4 fixes the window at 20 % while sweeping the seed count.
QUERY_WINDOW_PERCENT = 20

#: Figure 5's seed-set sizes, reduced to a pure-Python budget (paper: 5..50
#: in steps of 5; prefixes of one nested greedy list either way).
SPREAD_KS = (5, 15, 30, 50)

#: Figure 5 contrasts a short and a long window.
SPREAD_WINDOW_PERCENTS = (1, 20)

#: Figure 5's two infection probabilities.
SPREAD_PROBABILITIES = (0.5, 1.0)

#: Figure 5 / Table 6 method panel (the paper's seven competitors).
SPREAD_METHODS = ALL_METHODS

#: Table 6 drops exact IRS (its panel times the approx variant only).
SEED_TIME_METHODS = ("IRS-approx", "SKIM", "PR", "HD", "SHD", "CTE")

#: Table 6 times the top-50 selection at the 1 % window.
SEED_TIME_K = 50
SEED_TIME_WINDOW_PERCENT = 1

#: Table 5 compares top-10 seed sets across windows.
OVERLAP_K = 10

#: Table 3 runs where the exact index fits in memory.
ACCURACY_DATASETS = ("higgs-sim", "slashdot-sim")

#: Figure 5's three spread panels.
SPREAD_DATASETS = ("lkml-sim", "enron-sim", "facebook-sim")

#: Figure 4 contrasts the smallest and largest graphs.
QUERY_DATASETS = ("slashdot-sim", "us2016-sim")

#: The four datasets small enough for exact-index experiments.
SMALL_DATASETS = ("enron-sim", "lkml-sim", "facebook-sim", "slashdot-sim")
