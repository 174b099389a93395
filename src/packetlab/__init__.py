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
measures, the physical constants, and the special functions. numpy.random
loads with the first random stream and the special functions on first
use, so importing packetlab loads numpy only.

The package carries the modules, the errors and __version__; import a
function from its module, for example ``from packetlab.spincorr import chsh``.

When packetlab is the first to import numpy, OpenBLAS loads with one
thread. packetlab's largest BLAS call is a 256 x 256 SVD, so a second BLAS
thread only busy-waits: the pin saves CPU time. Records do not need it:
the thread count moves the last bits of that SVD, and the Schmidt residual
drops singular values at that rounding level, so records are the same
whoever imports numpy first. A caller who sets OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS keeps that count, and the environment
is left as it was found. The Monte Carlo worker threads are set by
``--shards``.
"""

import os as _os

# OpenBLAS reads the variable once, when numpy loads it with the first
# submodule import below, so it is set for that import only
_PIN = not any(
    v in _os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
)
if _PIN:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from . import actionprob, configspace, numkit, quantstat, spincorr, wavepacket
    from .errors import AccuracyWarning, DomainError, NumericalError, PacketLabError
finally:
    if _PIN:
        del _os.environ["OPENBLAS_NUM_THREADS"]
    del _os, _PIN

__version__ = "0.1.0"
