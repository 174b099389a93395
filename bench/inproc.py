"""In-process worker: the part of the benchmark that imports packetlab.

The driver (run.py) stays on the standard library and starts this file in
a fresh interpreter with ``src`` on PYTHONPATH. It prints one JSON object
on stdout.

    inproc.py env                              environment block
    inproc.py import                           in-process import time
    inproc.py library SEED PASSES              untraced library passes
    inproc.py trace WORKLOAD SEED SECONDS      traced run of any workload

A traced run first makes one untraced reference pass, then pairs of a
traced and an untraced pass, in alternating order, at least one pair and
more until SECONDS / 2 have gone.
Every pass must print byte-identical stdout (CLI workloads call
``packetlab.cli.run(argv, stdout=buffer)``) or return identical values
(library workload) to the reference pass.
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings

import check
import spans
import workloads


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked through ctypes."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    import packetlab
    import packetlab.cli  # noqa: F401  (also compiles every module once)

    cpu_model = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "packetlab": packetlab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# library workload: each call builds its inputs and runs one public kernel


def _gaussian(pl, points, sigma=1.0, center=0.0, half=8.0):
    spacing = 2.0 * half / (points - 1)
    return pl.numkit.sampled_gaussian(center, sigma, -half, spacing, points).normalized()


def _fourier_widths(pl, points):
    return pl.numkit.fourier_widths(_gaussian(pl, points))


def _coherence_profile(pl, points):
    gammas, length = pl.wavepacket.coherence_profile(_gaussian(pl, points),
                                                     [0.5, 1.0, 2.0])
    return tuple(gammas), length


def _entropy(pl, bins):
    temperature = 5800.0
    cavity = pl.quantstat.CavitySpec.photon_gas(1.0, temperature)
    mode_bins = pl.quantstat.photon_bins(1.0, temperature, bins)
    with warnings.catch_warnings():
        # the Stirling guard fires at this size, as in regress
        warnings.simplefilter("ignore", pl.AccuracyWarning)
        return pl.quantstat.entropy_and_derivatives(cavity, mode_bins)


def _fermi_pair(pl, points):
    cs = pl.configspace
    factors = [_gaussian(pl, points, sigma=0.7, center=c) for c in (-1.0, 1.0)]
    psi = cs.symmetrize(cs.ManyBodyWavefunction.from_product(factors), -1)
    spacing = psi.spacing
    conditional = cs.conditional_probability(psi, 0.5)
    density = cs.one_particle_density(psi)
    is_product, residual = cs.product_form_test(psi)
    return (is_product, residual, float(conditional.sum() * spacing),
            float(density.sum() * spacing),
            hashlib.sha256(conditional.tobytes() + density.tobytes()).hexdigest())


def _action_ratio(pl):
    return pl.actionprob.action_ratio_audit(*pl.actionprob.audit_scenario())


def _pair_counts(pl, pairs, seed):
    model = pl.spincorr.PairModel.qm_singlet()
    a = pl.spincorr.coplanar_axis(0.0)
    b = pl.spincorr.coplanar_axis(math.radians(45.0))
    counts = pl.spincorr.sample_pair_counts(model, a, b, pairs,
                                            pl.numkit.RandomStream(seed, 0))
    return counts, pl.spincorr.expectation(model, a, b)


LIBRARY_CALLS = {
    "numkit.fourier_widths": _fourier_widths,
    "wavepacket.coherence_profile": _coherence_profile,
    "quantstat.entropy_and_derivatives": _entropy,
    "configspace.fermi_pair": _fermi_pair,
    "actionprob.action_ratio_audit": _action_ratio,
    "spincorr.sample_pair_counts": _pair_counts,
}


def check_library(name: str, inputs: dict, result) -> list:
    """Problems with one library result, against closed forms."""
    def off(value, expected, tol, what):
        if abs(value - expected) <= tol:
            return []
        return [f"{name}: {what} = {value!r}, expected {expected!r} within {tol:g}"]

    if name == "numkit.fourier_widths":
        dx, dk = result
        return off(dx, 1.0, 1e-6, "delta_x") + off(dx * dk, 0.5, 1e-6, "delta_x delta_k")
    if name == "wavepacket.coherence_profile":
        gammas, length = result
        return (off(length, 2.0, 1e-3, "coherence length")
                + off(gammas[2], math.exp(-0.5), 1e-3, "|gamma(2 sigma)|"))
    if name == "quantstat.entropy_and_derivatives":
        from scipy.constants import k as k_boltzmann
        _, ds_de, ds_dn = result
        return (off(ds_de * 5800.0, 1.0, 0.01, "T dS/dE")
                + off(ds_dn / k_boltzmann, 0.0, 0.01, "dS/dN / k"))
    if name == "configspace.fermi_pair":
        is_product, _, conditional, density, _ = result
        problems = [f"{name}: antisymmetric pair tested as a product"] if is_product else []
        return (problems + off(conditional, 1.0, 1e-9, "conditional integral")
                + off(density, 2.0, 1e-9, "density integral"))
    if name == "actionprob.action_ratio_audit":
        kappa, spread = result
        problems = [] if kappa > 0.0 else [f"{name}: kappa = {kappa!r}"]
        return problems + off(spread, 0.0, 1e-3, "max relative spread")
    if name == "spincorr.sample_pair_counts":
        counts, closed = result
        n = inputs["pairs"]
        if sum(counts) != n:
            return [f"{name}: counts {counts} do not add up to {n}"]
        estimate = (counts[0] + counts[3] - counts[1] - counts[2]) / n
        return check.within(estimate, closed, 3.0 * math.sqrt((1.0 - closed**2) / n),
                             "pair correlation")
    raise ValueError(name)


# ---------------------------------------------------------------------------
# passes; each returns (outputs, per-operation wall times)


def library_pass(pl, calls):
    outputs, walls = [], []
    for name, inputs in calls:
        t0 = time.perf_counter()
        try:
            result = LIBRARY_CALLS[name](pl, **inputs)
        except Exception as exc:  # counted as a failed operation
            result = exc
        walls.append(time.perf_counter() - t0)
        outputs.append(result)
    return outputs, walls


def cli_pass(cli, argvs):
    outputs, walls = [], []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = cli.run(list(argv), stdout=out, stderr=err)
        except Exception as exc:  # counted as a failed operation
            rc, err = 1, io.StringIO(f"{check.TRACEBACK}\n{exc!r}\n")
        walls.append(time.perf_counter() - t0)
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return outputs, walls


def _fingerprint(workload, output) -> str:
    """What must repeat exactly: a CLI run's stdout, a library call's value."""
    return repr(output) if workload == "library" else output[1]


def _check_outputs(workload, ops, outputs) -> list:
    """Problems per operation of one pass, or [] entries when it succeeded."""
    if workload == "library":
        return [[f"{name}: raised {out!r}"] if isinstance(out, Exception)
                else check_library(name, inputs, out)
                for (name, inputs), out in zip(ops, outputs)]
    return [check.check_cli(argv, rc, stdout, stderr)
            for argv, (rc, stdout, stderr) in zip(ops, outputs)]


def run_library(seed: int, passes: int) -> dict:
    t0 = time.perf_counter()
    import packetlab as pl
    import_s = time.perf_counter() - t0

    calls = workloads.library_calls(seed)
    repeats = check.Repeats()
    pass_walls, pass_cpu, call_walls, problems = [], [], [], []
    failed = 0
    for _ in range(passes):
        cpu0, t0 = _cpu_s(), time.perf_counter()
        outputs, walls = library_pass(pl, calls)
        pass_walls.append(time.perf_counter() - t0)
        pass_cpu.append(_cpu_s() - cpu0)
        call_walls += walls
        for (name, _), out, found in zip(calls, outputs,
                                         _check_outputs("library", calls, outputs)):
            found = found + repeats.see([name], _fingerprint("library", out).encode())
            failed += bool(found)
            problems += found
    return {"import_s": import_s, "pass_walls": pass_walls, "pass_cpu": pass_cpu,
            "op_walls": call_walls, "attempted": passes * len(calls),
            "failed": failed, "problems": problems}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    if workload == "library":
        import packetlab as target
        ops = workloads.library_calls(seed)
        one_pass = library_pass
    else:
        from packetlab import cli as target
        ops = workloads.cli_workload(workload, seed)
        one_pass = cli_pass

    start = time.perf_counter()
    reference, _ = one_pass(target, ops)
    found = _check_outputs(workload, ops, reference)
    expected = [_fingerprint(workload, out) for out in reference]
    tracer = spans.Tracer()
    summaries, traced_walls, plain_walls = [], [], []
    while not summaries or time.perf_counter() - start < seconds / 2:
        # alternate which pass of a pair goes first, so order favours neither
        for traced in (True, False) if len(summaries) % 2 == 0 else (False, True):
            if traced:
                tracer.install()
                tracer.reset()
            try:
                t0 = time.perf_counter()
                outputs, walls = one_pass(target, ops)
                elapsed = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            if traced:
                summary = tracer.summary()
                summary["trace.coverage"] = summary.pop("spans_self_s") / sum(walls)
                summaries.append(summary)
                traced_walls.append(elapsed)
            else:
                plain_walls.append(elapsed)
            found += [[f"{'traced' if traced else 'untraced'} repeat differs from "
                       "the reference pass"] if _fingerprint(workload, out) != want else []
                      for out, want in zip(outputs, expected)]
    metrics = spans.median_summary(summaries)
    metrics["trace.overhead"] = (statistics.median(traced_walls)
                                 / statistics.median(plain_walls) - 1.0)
    if workload == "library":
        metrics["cli.out_bytes"] = 0
        metrics["cli.shard_mismatches"] = 0
    else:
        metrics["cli.out_bytes"] = sum(len(out[1].encode()) for out in reference)
        metrics["cli.shard_mismatches"] = check.shard_mismatches(
            ops, [out[1] for out in reference])
    labels = [op[0] if workload == "library" else " ".join(op) for op in ops]
    return {"metrics": metrics, "passes": 1 + 2 * len(summaries),
            "attempted": len(found), "failed": sum(bool(ps) for ps in found),
            "problems": [f"{labels[i % len(ops)]}: {p}"
                         for i, ps in enumerate(found) for p in ps]}


def main(argv) -> int:
    mode = argv[0]
    if mode == "env":
        out = environment()
    elif mode == "import":
        t0 = time.perf_counter()
        import packetlab  # noqa: F401
        out = {"import_s": time.perf_counter() - t0}
    elif mode == "library":
        out = run_library(int(argv[1]), int(argv[2]))
    elif mode == "trace":
        out = run_traced(argv[1], int(argv[2]), float(argv[3]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
