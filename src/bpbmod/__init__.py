"""Almost-attainment moduli for finite-dimensional real normed spaces.

The package computes max-metric distances to the norm-attainment set
Pi(X) = {(x, f) : |x| = |f|* = f(x) = 1}, the moduli measuring the worst
distance of almost-attaining pairs, the closed-form values and bounds these
quantities obey, the extremal pairs proving the bounds sharp, and the
non-squareness and convexity parameters that refine them.  Everything is
cross-validated against brute-force grid oracles.
"""

from .closed_forms import (ALPHA_CEILING, HilbertPair, LowerBound, ModulusQuery,
                           RegimeError, hilbert_distance, hilbert_modulus,
                           k_eta_auxiliaries, nonsquare_phi_bound, phi_lower_bound,
                           phi_upper_bound, psi, real_line_distance)
from .moduli import (AlphaReport, ConvexityReport, CorrectorResult,
                     CorrectorSearchError, audit_alpha_interior, bpb_corrector,
                     check_alpha_self_dual, collapse_k, convexity_profile,
                     estimate_alpha, estimate_phi, estimate_phi_mut)
from .pi_set import (EmptyConstraintError, ModulusEstimate, PairState, PiWitness,
                     distance_to_pi, hausdorff_modulus_set, is_in_pi, pair_state,
                     sample_pi)
from .spaces import (DimensionMismatchError, EstimatorConfig, Lp, NormedSpace,
                     Polytope, SpaceError, SpaceSpecError, Sum1, SumInf, parse_space)
from .witnesses import (canonical_pin, linf2_witness, real_witness, sum1_witness,
                        suminf_witness)

__version__ = "0.1.0"
