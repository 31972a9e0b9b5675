"""Central table of numerical defaults.

Every tunable the package exposes lives here so that certificates and
reports can echo the effective settings and stay self-describing.
"""

SERIES_TOL = 1e-14        # truncation tolerance for Mittag-Leffler series
SERIES_TERM_CAP = 200     # maximum series terms before giving up

EVAL_TOLERANCE = 1e-6     # certificate margin tolerance
GRID_ANGLES = 720         # angles per circle that dump samples and a report echoes
GRID_POINTS_MAX = 1 << 20  # most grid points, radii x angles: bounds a dump's CSV size and time
R_MAX = 0.999             # the certificate radius, and dump's outermost circle

DENOM_GUARD = 1e-12       # |E(z)| below this counts as hitting a zero in log_deriv
