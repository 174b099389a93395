"""Workload generator: the argv lists and library calls of each workload.

Everything a run feeds to packetlab is built here from the benchmark seed.
Monte Carlo invocations get a ``--seed`` derived from it, and the library
workload gets its RNG keys the same way; the README examples of ``cold``
keep their documented defaults. The same benchmark seed always gives the same
inputs, so two runs with one seed must print byte-identical records.

Standard library only: the driver imports this module and must not pay
for numpy.
"""

from __future__ import annotations

import hashlib
import math

# Wall time of one pass at the commit that defined the benchmark, measured
# on a 2-core Xeon with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1. The
# pass count of a run follows from these constants, not from a clock, so
# the number of latency samples -- and with it the rank of the tail
# percentile -- is the same on every commit and every run of a workload.
NOMINAL_PASS_S = {
    "cold": 22.5,
    "montecarlo": 11.6,
    "library": 1.8,
}
MIN_SAMPLES = 11  # the fewest with a percentile that has ten samples beyond it

WORKLOADS = ("cold", "montecarlo", "library")


def derive_seed(seed: int, label: str) -> int:
    """Unsigned 64-bit seed for one invocation, keyed by (seed, label)."""
    digest = hashlib.sha256(f"packetlab-bench/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def passes(workload: str, seconds: float, ops: int) -> int:
    """Whole passes of a run: about ``seconds`` of work at the nominal pass
    time, and at least MIN_SAMPLES operations."""
    return max(math.ceil(MIN_SAMPLES / ops), round(seconds / NOMINAL_PASS_S[workload]))


def cli_workload(name: str, seed: int) -> list:
    """The argv lists (without the program name) of one pass."""

    def s(label):
        return ["--seed", str(derive_seed(seed, label))]

    if name == "cold":
        # Every README example at its documented defaults, one fresh process
        # each, as users and acceptance tests 01/13 run packetlab. Import is
        # about 0.9 s of each ~1.0 s invocation (scipy.stats alone ~0.5 s)
        # and kernel work is small, so cold-start changes show here and
        # kernel changes should not. Run exactly as documented, so the RNG
        # users keep the default seed 0: with derived seeds, `balance` exits
        # 2 ("energy bookkeeping violated") for some seeds, a program defect
        # that no workload is allowed to trip.
        return [
            ["chsh"],
            ["bell", "--angles-deg", "0,30"],
            ["lhv", "--family", "sign", "--models", "50"],
            ["nosignal", "--trials", "200", "--max-dim", "8"],
            ["reduce", "--coeffs", "0.6,0.8", "--mode", "pick"],
            ["condspace", "--symmetry", "fermi", "--x2", "0.5"],
            ["actionprob", "--width-ratio", "100"],
            ["spread", "--full-length", "4e-15"],
            ["coherence", "--sigma", "2.0"],
            ["accum"],
            ["sterngerlach"],
            ["cavity", "--temperature", "5800", "--entropy"],
            ["counts", "--stat", "bose", "--g", "1", "--mbar", "1", "--mmax", "5"],
            ["counts", "--stat", "bose", "--g", "1", "--mbar", "1", "--mmax", "5",
             "--format", "csv"],
            ["balance"],
            ["vonlaue", "--r", "6.283185307179586"],
            ["regress"],
        ]
    if name == "montecarlo":
        # The Philox fill and the sampler arithmetic dominate; records are
        # tiny, so rendering cannot matter. Peak RSS grows ~110 B per pair,
        # so fixed-size blocks, bounded memory and real shard workers (the
        # ROADMAP's Monte Carlo item) show here. The sample and the counts
        # calls run at 1 and 2 shards with one seed each: their records
        # should agree at any shard count.
        sample_seed = s("montecarlo/sample")
        counts = ["counts", "--stat", "bose", "--g", "4", "--mbar", "8",
                  "--mc", "2000000", *s("montecarlo/counts")]
        return [
            ["sample", "--n", "4000000", "--shards", "1", *sample_seed],
            ["sample", "--n", "4000000", "--shards", "2", *sample_seed],
            ["chsh", "--mc", "1000000", *s("montecarlo/chsh")],
            counts + ["--shards", "1"],
            counts + ["--shards", "2"],
            ["lhv", "--family", "random", "--models", "400", *s("montecarlo/lhv")],
            ["nosignal", "--trials", "1000", *s("montecarlo/nosignal")],
        ]
    raise ValueError(f"not a CLI workload: {name}")


def library_calls(seed: int) -> list:
    """(call name, inputs) of one library pass.

    One process imports packetlab once and calls public kernels at sizes
    the CLI cannot reach. No process start, parsing or rendering, so
    numerical-kernel changes show undiluted and cli changes show nothing;
    without this workload the DFT-to-FFT win is invisible end to end.
    """
    return [
        # the CLI reaches the direct DFT only at 1,024 points, inside regress
        ("numkit.fourier_widths", {"points": 4096}),
        ("wavepacket.coherence_profile", {"points": 8192}),
        ("quantstat.entropy_and_derivatives", {"bins": 1000}),
        ("configspace.fermi_pair", {"points": 256}),
        ("actionprob.action_ratio_audit", {}),
        ("spincorr.sample_pair_counts",
         {"pairs": 1_000_000, "seed": derive_seed(seed, "library/pairs")}),
    ]
