"""Eigenfunction coupling of 1-D metastable diffusions to finite Markov chains.

The package builds, for a confining polynomial potential and noise level eps:

* the reversible discrete generator of the diffusion and its low-lying
  spectrum (two independent routes),
* a finite-state Markov chain generator with matching eigenvalues and
  positivity-scaled eigenvectors,
* the coupled joint generator, whose conditional laws are verified exactly by
  a uniformization oracle,
* Monte Carlo path ensembles with tracking and exit-time diagnostics.
"""

from .potential import (
    Potential,
    DomainPartition,
    make_potential,
    preset_names,
    find_critical_points,
    domains_of_attraction,
    validate_assumptions,
)
from .spectral import (
    Grid,
    DiscreteGenerator,
    SpectralDecomposition,
    auto_grid,
    build_generator,
    build_schrodinger,
    decompose,
)
from .tridiag import eigensolve_tridiagonal
from .chain import ChainSpec, synth_generator, scaled_eigenvectors, validate_chain
from .coupling import (
    CouplingModel,
    Pipeline,
    build_coupling,
    build_pipeline,
    build_joint_generator,
    sample_initial,
    conditional_density,
)
from .simulate import (
    EnsembleConfig,
    Ensemble,
    TrajectoryRecord,
    simulate_x,
    simulate_y_given_x,
    simulate_ensemble,
    simulate_ensembles,
    first_exit_time,
)
from .oracle import (
    evolve_distribution,
    check_oracle,
    mean_exit_times,
)
from .stats import (
    EstimateWithCI,
    ks_exponential,
    tracking_probability,
    rate_match_report,
    exact_exit_times,
    tv_distance,
)

__version__ = "0.1.0"
