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

The package carries the modules, the errors and __version__; import a
function from its module, for example ``from packetlab.spincorr import chsh``.
"""

from . import actionprob, configspace, numkit, quantstat, spincorr, wavepacket
from .errors import AccuracyWarning, DomainError, NumericalError, PacketLabError

__version__ = "0.1.0"
