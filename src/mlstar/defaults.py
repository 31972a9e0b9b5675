"""Central table of numerical defaults.

Every tunable the package exposes lives here so that certificates and
reports can echo the effective settings and stay self-describing.
"""

SERIES_TOL = 1e-14        # truncation tolerance for Mittag-Leffler series
SERIES_TERM_CAP = 200     # maximum series terms before giving up

EVAL_TOLERANCE = 1e-6     # certificate margin tolerance
GRID_ANGLES = 720
R_MAX = 0.999

DENOM_GUARD = 1e-12       # |E(z)| below this counts as hitting a zero
FAILURE_FRACTION = 1e-3   # tolerated fraction of failed grid points
