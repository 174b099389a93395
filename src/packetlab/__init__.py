"""packetlab: a deterministic numerical laboratory for wavepacket physics.

The package groups five experiment families behind one CLI:

- spincorr: spin-pair correlations, CHSH combinations, hidden-variable
  audits and no-signaling checks for bipartite expansions;
- configspace: few-particle configuration-space wavefunctions, exchange
  symmetry, conditional densities and expansion reductions;
- actionprob: first-order transition probabilities of a broad packet on
  a localized scatterer and the factorization audit W = kappa |psi|^2;
- wavepacket: relativistic spreading kinematics, coherence lengths and
  desk-scale estimates (energy accumulation, beam-splitting deflection);
- quantstat: thermal mode statistics, detailed balance, entropy of cell
  occupations and detector counting distributions.

numkit carries the shared numerics: counter-based random streams and
their samplers, sampled functions on uniform grids, width and spectral
measures, the physical constants, and the special functions. numpy.random
loads with the first random stream and the special functions on first
use, so importing packetlab loads numpy only.
"""

from .errors import (
    AccuracyWarning,
    DomainError,
    NumericalError,
    PacketLabError,
)
from .numkit import (
    RandomStream,
    SampledFunction1D,
    UnitVector3,
    fourier_widths,
    log_binomial,
    normalize,
    position_width,
    sample_haar_unitary,
    sample_integer,
    sample_isotropic_direction,
    sample_isotropic_directions,
    sample_normals,
    sampled_gaussian,
)
from .spincorr import (
    BipartiteCoefficients,
    JointProbability,
    LhvModel,
    PairModel,
    basis_change,
    chsh,
    coincidence_expectation,
    coplanar_axis,
    expectation,
    joint_probability,
    joint_table,
    lhv_chsh_audit,
    lhv_expectation,
    marginal,
    no_signaling_audit,
    random_lhv_model,
    sample_pair_counts,
    semiclassical_lhv_model,
    sign_anticorrelated_model,
)
from .configspace import (
    ExpansionCoefficients,
    ManyBodyWavefunction,
    conditional_probability,
    one_particle_density,
    product_form_test,
    reduce_expansion,
    symmetrize,
)
from .actionprob import (
    ScattererSpec,
    TransitionSetup,
    action_ratio_audit,
    audit_scenario,
    efficiency_decomposition,
    final_packet_family,
    first_order_transition,
    width_ratio,
)
from .wavepacket import (
    BOHR_MAGNETON,
    Dispersion,
    PacketEvolution,
    accumulation_time,
    carrier_wavenumber,
    coherence_profile,
    group_velocity,
    intrinsic_moment,
    min_width_spreading_bound,
    spread_after_flight,
    stern_gerlach_deflection,
    tau_doubling,
    width_at_time,
)
from .quantstat import (
    RADIATION_CONSTANT,
    CavitySpec,
    CountDistribution,
    Statistics,
    balance_residual,
    binomial_fold_check,
    binomial_pmf,
    count_distribution,
    count_variance,
    einstein_balance,
    entropy_and_derivatives,
    packet_quanta_dist,
    photon_bins,
    photon_mode_count,
    sample_balance_args,
    sample_counts,
    spectral_distribution,
    thinned_count_distribution,
    vonlaue_dof,
)

__version__ = "0.1.0"
