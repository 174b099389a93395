"""packetlab: a deterministic numerical laboratory for wavepacket physics.

The package groups five experiment families behind one CLI:

- spincorr: spin-pair correlations, CHSH combinations, hidden-variable
  audits and no-signaling checks for bipartite expansions;
- configspace: two-particle configuration-space wavefunctions, exchange
  symmetry, conditional densities and expansion reductions;
- actionprob: first-order transition probabilities of a broad packet on
  a localized scatterer and the factorization audit W = kappa |psi|^2;
- wavepacket: relativistic spreading kinematics, coherence lengths and
  desk-scale estimates (energy accumulation, beam-splitting deflection);
- quantstat: thermal mode statistics, detailed balance, entropy of cell
  occupations and detector counting distributions.

numkit carries the shared numerics: counter-based random streams and
their samplers, sampled functions on uniform grids, width and spectral
measures, the physical constants, and the special functions. numkit also
owns packetlab's one numpy import, which loads numpy on first use:
importing packetlab loads no third-party module, and neither do the
commands whose kernels use only math. numpy.random loads with the first
random stream.

The package carries the modules, the errors and __version__; import a
function from its module, for example ``from packetlab.spincorr import chsh``.

The first packetlab call that needs an array loads numpy, and when
packetlab is the first to load it, OpenBLAS loads with one thread.
packetlab's largest BLAS call is a 256 x 256 SVD, so a second BLAS thread
only busy-waits: the pin saves CPU time. Records do not need it: the
thread count moves the last bits of that SVD, and the Schmidt residual
drops singular values at that rounding level, so records are the same
whoever loads numpy first. A caller who sets OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS keeps that count, and the environment
is left as it was found. The Monte Carlo worker threads are set by
``--shards``.
"""

from . import actionprob, configspace, numkit, quantstat, spincorr, wavepacket
from .errors import AccuracyWarning, DomainError, NumericalError, PacketLabError

__version__ = "0.1.0"
