"""Integer and continuous abelian sandpiles on finite subsets of Z^d.

The integer model moves whole grains with threshold 2d; the continuous
model moves real mass with threshold 1 and is stored decomposed into
integer quanta (multiples of 1/2d) plus fractional parts that
stabilization never touches. On top of the two dynamics sit exact
enumeration of recurrent configurations, determinant identities, samplers
for the natural invariant law, couplings, and the Fourier tools for the
fixed-amount chains.
"""

from .errors import CapacityError, DomainError, GeometryError, SandpileError
from .lattice import (Lattice, TopplingMatrix, build_lattice,
                      determinant_exact, toppling_matrix)
from .btw import (addition_order, btw_add, btw_inverse_add, btw_stabilize,
                  btw_topple, enumerate_recurrent, is_allowed_bruteforce,
                  is_recurrent_burning, is_stable, max_stable, stabilize_from,
                  stabilize_many)
from .cbtw import (AdditionParams, CbtwConfig, cbtw_add, cbtw_inverse_add,
                   cbtw_stabilize, cbtw_topple, decompose, is_allowed_cbtw,
                   max_config, quantum_multiple, zero_config)
from .measures import (Binning, Histogram, estimate_tv, frac_bins,
                       sample_rational_limit_batch, sample_uniform_allowed,
                       sample_uniform_allowed_batch, tv_noise_floor)
from .experiments import (ChainState, CouplingEnsembleResult, CouplingResult,
                          EpochRecord, InvarianceResult, RationalLimitResult,
                          TvDecayResult, coupling_success_probability,
                          epoch_shape, ergodic_average, invariance_experiment,
                          phase_observable, rational_limit_test, run_chain,
                          run_chain_ensemble, run_coupling,
                          run_coupling_ensemble, step_ensemble,
                          translation_mixture_bound,
                          translation_mixture_fourier,
                          translation_mixture_fourier_mc, tv_decay_experiment)

__version__ = "0.1.0"
