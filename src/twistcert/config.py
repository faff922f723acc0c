"""Numerical tolerances used across the package: fixed constants, not options."""

# ||U^dag U - I||_2 default of is_unitary, and the bound a caller's matrix
# must meet to be accepted as unitary (linalg.require_unitary)
UNITARITY = 1e-10
INPUT_UNITARITY = 100 * UNITARITY
# relative normality defect ||A^*A - AA^*||_F / ||A||_F^2
NORMALITY = 1e-8
# normal-eigensolver residual max ||A x - lam x||_2, relative to max(1, ||A||_2);
# also the window, times max(1, max |lambda|), in which a shared-eigenvector
# seed is snapped onto the spectrum
EIG_RESIDUAL = 1e-9
PROJECTOR = 1e-10  # ||P^2 - P||_2 and ||P - P^dag||_2
HERMITICITY = 1e-10  # ||H - H^dag||_2, relative to ||H||_2
SPECTRAL_REL = 1e-8  # relative tolerance of a stated gap or width
ANGLE_MERGE = 1e-12  # radians: arc endpoints this close coincide (arc_dimension)
# allowance of a measured value over its proven bound: the ground-symmetry
# distances, and the restricted value, orbit expectations and two-pair witness
GROUND_SLACK = 1e-9
BOUND_SLACK = 1e-8
# unit-norm check of gram_independent and Gram rank cutoff of the witness
GRAM_TOL = 1e-8
SEED_ATOL = 1e-12  # distance within which an eigenvalue equals the seed of cluster
# largest distance from {0, 1} of an eigenvector's band weight ||P x||^2 for P
# to count as a spectral projector of H (BandSpec)
BAND_WEIGHT = 1e-6
# floor of the cluster radius of the shared-eigenvector construction: keeps it
# defined when the measured commutator vanishes (exactly commuting inputs),
# where the cluster collapses to the numerically degenerate eigenspace of the seed
CLUSTER_RADIUS_FLOOR = 1e-12
# relative rounding margin of cluster's check diameter <= n * radius
CLUSTER_DIAMETER_MARGIN = 1e-12
# distance from alpha within which _rational_twist accepts p/q (float resolution)
RATIONAL_TWIST = 1e-15
# radians: expectation targets this close coincide, and overlap_bound has no bound
COINCIDENT_ANGLE = 1e-15
# linalg.norm_upper: Lanczos steps of its estimate of lambda_max(X^dag X); the
# residual, relative to the largest Lanczos diagonal entry, at which the Krylov
# space counts as invariant; the first and the last relative widening of the
# estimate that it tries to prove (each retry widens 100-fold); and the Gram
# dimension below which the SVD's sigma_1 is the estimate instead.  The step
# count and the dimension are whole numbers kept as floats, like every constant
# here
NORM_LANCZOS_STEPS = 48.0
NORM_LANCZOS_BREAKDOWN = 1e-12
NORM_WIDENING = 1e-12
NORM_WIDENING_MAX = 1e-9
NORM_SVD_BELOW = 100.0
