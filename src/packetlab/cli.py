"""Command-line front end.

One executable, one subcommand per experiment family. Everything a run
needs is on the command line or in a JSON config whose keys mirror the
flags; flags win over config. A flag's value is the next token, whatever
it looks like, or the text after '='; a boolean flag takes none, the last
of a repeated flag wins, and no flag name is abbreviated. Output is a
single JSON record (or CSV for the distribution-shaped commands) with the
resolved parameters embedded, so a record is reproducible from itself.

Exit codes: 0 on success, 1 for invalid input (a malformed flag or a
value the library rejects), 2 for numerical failure, including an
allocation the machine refuses and an arithmetic fault (say, an
overflow). Warnings go to stderr as one `warning: <message>` line each,
the library's and the front end's own notices alike.
"""

from __future__ import annotations

import collections
import json
import math
import sys
import warnings

import numpy as np

from . import actionprob, configspace, numkit, quantstat, spincorr, wavepacket
from .errors import AccuracyWarning, DomainError, NumericalError, PacketLabError
from .numkit import E_CHARGE, H_PLANCK, K_BOLTZMANN, M_PROTON

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# canonical rendering


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        # NaN and Infinity are not strict JSON, and no result is meaningful at them
        raise NumericalError(f"a result is not finite ({v!r})")
    if v == 0.0:
        return "0"
    return format(v, ".17g")


def _render_array(arr: np.ndarray) -> list:
    """Each entry of a 1-D numeric array as _render_json writes that scalar."""
    if arr.dtype.kind == "b":
        return ["true" if v else "false" for v in arr.tolist()]
    if arr.dtype.kind in "iu":
        return [str(v) for v in arr.tolist()]
    finite = np.isfinite(arr)  # one check for the whole array
    if not finite.all():
        _fmt_float(float(arr[np.argmin(finite)]))  # raises for the first one
    return ["0" if v == 0.0 else f"{v:.17g}" for v in arr.tolist()]


def _render_json(value) -> str:
    """Deterministic JSON: 17 significant digits, insertion-ordered keys."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "biuf":
        return "[" + ", ".join(_render_array(value)) + "]"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_render_json(x) for x in value) + "]"
    if isinstance(value, dict):
        items = (
            json.dumps(str(k)) + ": " + _render_json(v)
            for k, v in value.items()
        )
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_csv(columns: dict) -> str:
    cells = [_render_array(column) for column in columns.values()]
    lines = [",".join(columns)]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# flag value converters; each takes the raw CLI/config value plus the flag
# name and either returns the typed value or raises DomainError naming the flag


def _as_int(raw, name: str) -> int:
    if isinstance(raw, bool):
        raise DomainError(f"parameter {name}: expected an integer, got a boolean")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float):
        if not raw.is_integer():  # also false for inf and nan
            raise DomainError(f"parameter {name}: expected an integer, got {raw!r}")
        return int(raw)
    try:
        return int(str(raw).strip(), 10)
    except ValueError:
        raise DomainError(f"parameter {name}: {raw!r} is not an integer") from None


def _u64(raw, name: str) -> int:
    value = _as_int(raw, name)
    if not 0 <= value < 2**64:
        raise DomainError(f"parameter {name}: must fit in an unsigned 64-bit integer")
    return value


def _posint(raw, name: str) -> int:
    value = _as_int(raw, name)
    if value < 1:
        raise DomainError(f"parameter {name}: must be a positive integer")
    if value > 2**53:  # floats hold every integer up to here; quantstat caps g alike
        raise DomainError(f"parameter {name}: must be at most 2**53")
    return value


def _flt(raw, name: str) -> float:
    if isinstance(raw, bool):
        raise DomainError(f"parameter {name}: expected a number, got a boolean")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise DomainError(f"parameter {name}: {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise DomainError(f"parameter {name}: {raw!r} is not a finite number")
    return value


def _posflt(raw, name: str) -> float:
    value = _flt(raw, name)
    if not value > 0:
        raise DomainError(f"parameter {name}: must be positive")
    return value


def _boolean(raw, name: str) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise DomainError(f"parameter {name}: {raw!r} is not a boolean")


def _text(raw, name: str) -> str:
    if not isinstance(raw, str):
        raise DomainError(f"parameter {name}: expected a string")
    return raw


def _split_items(raw, name: str) -> list:
    if isinstance(raw, (list, tuple)):
        return list(raw)
    if isinstance(raw, str):
        items = [p.strip() for p in raw.split(",")]
        if any(p == "" for p in items):
            raise DomainError(f"parameter {name}: empty entry in the list")
        return items
    raise DomainError(f"parameter {name}: expected a comma-separated list")


def _float_list(count: int = None):
    def conv(raw, name: str) -> list:
        vals = [_flt(x, name) for x in _split_items(raw, name)]
        if count is not None and len(vals) != count:
            raise DomainError(f"parameter {name}: expected exactly {count} values")
        return vals

    return conv


def _int_list(raw, name: str) -> list:
    return [_as_int(x, name) for x in _split_items(raw, name)]


def _choice(*options: str):
    def conv(raw, name: str) -> str:
        text = str(raw).strip().lower()
        if text not in options:
            raise DomainError(
                f"parameter {name}: {raw!r} is not one of {', '.join(options)}"
            )
        return text

    return conv


# ---------------------------------------------------------------------------
# the command registry: each handler registers its key, help line, parameter
# table of (flag, converter, default, help) and whether it has a table with
# @_command, which appends the common flags to the table and stores every
# handler as one that returns (fields, columns). It is the one description
# of each flag: argv is parsed and --help written from it

_Command = collections.namedtuple("_Command", "help flags handler table")
_COMMANDS = {}  # key -> _Command, in --help order

_GLOBAL_FLAGS = (
    ("seed", _u64, 0, "base RNG seed (unsigned 64-bit)"),
    ("shards", _posint, 1,
     "Monte Carlo worker threads, capped at the CPU count; results do not depend on N"),
    ("out", _text, None, "write the record to this path instead of stdout"),
    ("format", _choice("json", "csv"), "json", "output format"),
    ("config", _text, None, "JSON file whose keys mirror the flags"),
)


def _command(key: str, help_text: str, *flags, table: bool = False):
    def register(handler):
        uniform = handler if table else lambda p: (handler(p), None)
        _COMMANDS[key] = _Command(help_text, flags + _GLOBAL_FLAGS, uniform, table)
        return handler

    return register


_PAIR_FLAGS = (
    ("model", _choice("qm", "sc"), "qm", "pair model"),
    ("angles-deg", _float_list(2), None, "coplanar analyser angles a,b"),
    ("a", _float_list(3), None, "analyser direction a as x,y,z"),
    ("b", _float_list(3), None, "analyser direction b as x,y,z"),
)

# ---------------------------------------------------------------------------
# handlers and their helpers; each takes the params that _resolve typed from
# argv, a --config file or a regress invocation, and returns its record's
# fields; one registered with a table returns (fields, columns), where
# columns maps each CSV column name to a 1-D array, one entry per row


def _unit(values, zero: str, renormalized: str) -> np.ndarray:
    """values over their norm; a zero norm raises the text zero, and a norm
    off 1 by more than 1e-6 warns the text renormalized, then the norm."""
    unit, norm = numkit.normalize(values)
    if norm == 0.0:
        raise DomainError(zero)
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"{renormalized} {norm:.8g}", AccuracyWarning)
    return unit


def _settings_from(p: dict, vec_keys: tuple, default_angles: tuple) -> list:
    """Analyser directions from vector flags or coplanar angles."""
    if any(p[k] is not None for k in vec_keys):
        if p["angles-deg"] is not None:
            raise DomainError("give either --angles-deg or direction vectors, not both")
        missing = [k for k in vec_keys if p[k] is None]
        if missing:
            raise DomainError(f"missing direction vectors: {', '.join(missing)}")
        return [
            numkit.UnitVector3(*_unit(
                p[k], f"parameter {k}: zero vector cannot define a direction",
                f"direction {k} renormalized from |v| =",
            ))
            for k in vec_keys
        ]
    angles = p["angles-deg"] if p["angles-deg"] is not None else list(default_angles)
    return [spincorr.coplanar_axis(math.radians(a)) for a in angles]


# the pair model of each --model choice
_PAIR_MODELS = {"qm": spincorr.PairModel.qm_singlet, "sc": spincorr.PairModel.semiclassical}

# coplanar CHSH settings a, b, a', b' in degrees
_CANONICAL_DEG = (0.0, 45.0, 90.0, -45.0)


@_command("bell", "joint outcome table for one pair of analyser settings", *_PAIR_FLAGS)
def _cmd_bell(p: dict):
    model = _PAIR_MODELS[p["model"]]()
    a, b = _settings_from(p, ("a", "b"), (0.0, 45.0))
    table = spincorr.joint_table(model, a, b)
    return {
        "a": list(a.as_array()),
        "b": list(b.as_array()),
        "joint": {"pp": table.pp, "pm": table.pm, "mp": table.mp, "mm": table.mm},
        "expectation": table.expectation,
        "marginal_b_plus": spincorr.marginal(model, a, b, +1),
        "marginal_b_minus": spincorr.marginal(model, a, b, -1),
    }


@_command(
    "chsh", "CHSH combination K, closed form and optionally Monte Carlo",
    ("model", _choice("qm", "sc"), "qm", "pair model"),
    ("angles-deg", _float_list(4), None, "coplanar angles a,b,a',b'"),
    ("a", _float_list(3), None, "direction a as x,y,z"),
    ("b", _float_list(3), None, "direction b as x,y,z"),
    ("a2", _float_list(3), None, "direction a' as x,y,z"),
    ("b2", _float_list(3), None, "direction b' as x,y,z"),
    ("mc", _posint, None, "also estimate K from this many pairs per setting"),
)
def _cmd_chsh(p: dict):
    model = _PAIR_MODELS[p["model"]]()
    settings = _settings_from(p, ("a", "b", "a2", "b2"), _CANONICAL_DEG)
    fields = {
        "settings": [list(v.as_array()) for v in settings],
        "K": spincorr.chsh(model, *settings),
    }
    n = p["mc"]
    if n is not None:
        fields["K_mc"], estimates = spincorr.chsh_estimate(
            model, settings, n, p["seed"], workers=p["shards"]
        )
        fields["samples_per_setting"] = n
        fields["three_sigma"] = 3.0 * math.sqrt(
            sum((1.0 - e * e) / n for e in estimates)
        )
    return fields


@_command(
    "sample", "simulate coincidence counts for one pair of settings",
    *_PAIR_FLAGS,
    ("n", _posint, 100000, "number of simulated pairs"),
)
def _cmd_sample(p: dict):
    model = _PAIR_MODELS[p["model"]]()
    a, b = _settings_from(p, ("a", "b"), (0.0, 45.0))
    n = p["n"]
    totals = spincorr.block_pair_counts(model, a, b, n, p["seed"], workers=p["shards"])
    estimate = spincorr.coincidence_expectation(*totals)
    return {
        **dict(zip(("n_pp", "n_pm", "n_mp", "n_mm"), totals)),
        "samples": n,
        "expectation_estimate": estimate,
        "three_sigma": 3.0 * math.sqrt((1.0 - estimate**2) / n),
        "expectation_closed_form": spincorr.expectation(model, a, b),
    }


@_command(
    "lhv", "audit hidden-variable model families against the CHSH bound",
    ("family", _choice("random", "semiclassical", "sign"), "random",
     "hidden-variable model family"),
    ("models", _posint, None, "models to draw (random and sign families; default 100)"),
    ("settings", _posint, 100, "setting quadruples per model"),
    ("n-lambda", _posint, None, "hidden-variable grid size per drawn model (default 16)"),
)
def _cmd_lhv(p: dict):
    family = p["family"]
    for name, default in (("models", 100), ("n-lambda", 16)):  # drawn models only
        if family == "semiclassical" and p[name] is not None:
            raise DomainError(f"parameter {name}: not used by the semiclassical family")
        if family != "semiclassical" and p[name] is None:
            p[name] = default
    seed, n_settings = p["seed"], p["settings"]
    fields = {"family": family, "settings_per_model": n_settings}
    if family == "semiclassical":
        models = [spincorr.semiclassical_lhv_model()]
        bound = 4.0 / 3.0
        canonical = [spincorr.coplanar_axis(math.radians(d)) for d in _CANONICAL_DEG]
        fields["canonical_K"] = spincorr.lhv_chsh_audit(models[0], *canonical)[0]
    else:
        make = {"sign": spincorr.sign_anticorrelated_model,
                "random": spincorr.random_lhv_model}[family]
        rng = numkit.RandomStream(seed, 0, position=8 * n_settings)
        models = [make(rng, p["n-lambda"]) for _ in range(p["models"])]
        bound = 2.0

    # stream 0 holds a, b, a', b' as four arrays of n rows, two uniforms a row,
    # then the models; drawing each block where it lies bounds the memory
    def block(b, size):
        settings = [numkit.sample_isotropic_directions(numkit.RandomStream(
            seed, 0, position=2 * (k * n_settings + b * numkit.MC_BLOCK)), size)
            for k in range(4)]
        return max(float(np.max(spincorr.lhv_chsh_audit(m, *settings)[0])) for m in models)

    max_k = numkit.run_blocks(block, n_settings, p["shards"], combine=max)
    fields["models"] = len(models)
    fields["max_K"] = max_k
    fields["bound"] = bound
    fields["satisfied"] = bool(max_k <= bound + spincorr.CHSH_BOUND_TOL)
    return fields


@_command(
    "nosignal", "remote-measurement invariance of one-side probabilities",
    ("trials", _posint, 200, "random state/apparatus trials"),
    ("max-dim", _posint, 8, "largest expansion dimension per side"),
)
def _cmd_nosignal(p: dict):
    max_dim = p["max-dim"]
    if max_dim < 2:
        raise DomainError("parameter max-dim: need at least 2")
    if max_dim > spincorr.MAX_BIPARTITE_DIM:  # before any matrix is drawn
        raise DomainError(f"dimensions capped at {spincorr.MAX_BIPARTITE_DIM}")
    # each trial draws, in this order, the row and column counts, the
    # coefficient matrix, the apparatus unitary and the probed column
    rng = numkit.RandomStream(p["seed"], 0)
    worst = 0.0
    for trial in range(p["trials"]):
        rows = numkit.sample_integer(rng, 2, max_dim)
        cols = numkit.sample_integer(rng, 2, max_dim)
        matrix = (
            numkit.sample_normals(rng, rows * cols)
            + 1j * numkit.sample_normals(rng, rows * cols)
        ).reshape(rows, cols)
        coeffs = spincorr.BipartiteCoefficients.normalized(matrix)
        u = numkit.sample_haar_unitary(rng, rows)
        n_col = numkit.sample_integer(rng, 0, cols - 1)
        sign = +1 if trial % 2 == 0 else -1
        worst = max(worst, spincorr.no_signaling_audit(coeffs, u, n_col, sign=sign)[3])
    return {
        "trials": p["trials"],
        "max_dim": max_dim,
        "max_deviation": worst,
        "satisfied": bool(worst < 1e-10),
    }


@_command(
    "reduce", "reduce an eigenfunction expansion (window or single pick)",
    ("coeffs", _float_list(), None, "expansion coefficients (normalized)"),
    ("mode", _choice("window", "pick"), "window", "reduction mode"),
    ("window", _int_list, None, "indices kept by the reduction"),
)
def _cmd_reduce(p: dict):
    if p["coeffs"] is None:
        raise DomainError("parameter coeffs is required")
    window, pick = p["window"], p["mode"] == "pick"
    if window is None and not pick:
        raise DomainError("window mode needs --window")
    coeffs = configspace.ExpansionCoefficients(
        _unit(p["coeffs"], "parameter coeffs: all coefficients are zero",
              "coefficients renormalized from |c| =")
    )
    rng = numkit.RandomStream(p["seed"], 0) if pick else None
    out = configspace.reduce_expansion(coeffs, window, rng)

    fields = {
        "mode": p["mode"],
        "input_probabilities": coeffs.probabilities(),
        "output_real": np.real(out.values),
        "output_imag": np.imag(out.values),
        "output_probabilities": out.probabilities(),
    }
    if window is not None:
        fields["window_mass"] = float(np.sum(coeffs.probabilities()[sorted(set(window))]))
    if pick:
        fields["picked"] = int(np.argmax(out.probabilities()))
    return fields


@_command(
    "condspace", "two-particle configuration-space conditional density",
    ("centers", _float_list(2), [-1.0, 1.0], "packet centers"),
    ("sigmas", _float_list(2), [0.7, 0.7], "packet widths"),
    ("k0", _float_list(2), [0.0, 0.0], "packet carrier wavenumbers"),
    ("grid", _float_list(3), [-8.0, 8.0, 161], "grid as start,stop,points"),
    ("x2", _flt, 1.0, "conditioning position of the second particle"),
    ("symmetry", _choice("none", "bose", "fermi"), "bose", "exchange symmetry"),
    table=True,
)
def _cmd_condspace(p: dict):
    start, stop, num_raw = p["grid"]
    num = _as_int(num_raw, "grid")
    if num < numkit.MIN_SAMPLES:
        raise DomainError(f"parameter grid: need at least {numkit.MIN_SAMPLES} points")
    if num > configspace.MAX_POINTS:  # before the grid is sampled
        raise DomainError(f"grid capped at {configspace.MAX_POINTS} points")
    if not stop > start:
        raise DomainError("parameter grid: stop must exceed start")
    spacing = (stop - start) / (num - 1)

    factors = [
        numkit.sampled_gaussian(center, sigma, start, spacing, num, k0=k0).normalized()
        for center, sigma, k0 in zip(p["centers"], p["sigmas"], p["k0"])
    ]
    psi = configspace.ManyBodyWavefunction.from_product(factors)
    convention = "marginal" if p["symmetry"] == "none" else "exchange"
    if convention == "exchange":
        psi = configspace.symmetrize(psi, +1 if p["symmetry"] == "bose" else -1)
        density = configspace.one_particle_density(psi)
    else:
        density = np.sum(np.abs(psi.tensor) ** 2, axis=1) * spacing
    conditional = configspace.conditional_probability(psi, p["x2"])
    is_product, residual = configspace.product_form_test(psi)

    i2 = min(max(int(round((p["x2"] - start) / spacing)), 0), num - 1)
    fields = {
        "symmetry": p["symmetry"],
        "grid_start": start,
        "grid_spacing": spacing,
        "points": num,
        "x2_snapped": float(psi.grid[i2]),
        "conditional_integral": float(np.sum(conditional) * spacing),
        "product_form": is_product,
        "schmidt_residual": residual,
        "density_convention": convention,
        "conditional": conditional,
        "density": density,
    }
    return fields, {"x": psi.grid, "conditional": conditional, "density": density}


@_command(
    "actionprob", "factorization audit of first-order transition probabilities",
    ("width-ratio", _posflt, 100.0, "packet width over scatterer width, at most 1e4"),
    ("probes", _posint, 9, "scatterer positions probed across the packet"),
    ("finals", _posint, 8, "final packets summed per probe"),
)
def _cmd_actionprob(p: dict):
    setup, scatterer, centers, finals = actionprob.audit_scenario(
        p["width-ratio"], p["probes"], p["finals"]
    )
    kappa, spread = actionprob.action_ratio_audit(setup, scatterer, centers, finals)
    w_center = sum(
        actionprob.first_order_transition(setup, scatterer, f) for f in finals
    )
    interactions, efficiency = actionprob.efficiency_decomposition(
        w_center, setup.psi_i.norm_sq(), kappa * (setup.t - setup.t0)
    )
    return {
        "width_ratio": actionprob.width_ratio(setup, scatterer),
        "probes": p["probes"],
        "finals": p["finals"],
        "kappa": kappa,
        "max_relative_spread": spread,
        "w_total_center": w_center,
        "interaction_number": interactions,
        "efficiency": efficiency,
    }


@_command(
    "packet spread", "relativistic wavepacket spreading over a flight",
    ("mass-kg", _posflt, M_PROTON, "particle mass"),
    ("kinetic-mev", _posflt, 6.0, "kinetic energy"),
    ("width0", _posflt, None, "initial standard-deviation width (m)"),
    ("full-length", _posflt, None, "initial full length 2*width0 (m)"),
    ("distance", _posflt, 0.05, "flight distance (m)"),
    ("direction", _choice("longitudinal", "transverse"), "longitudinal",
     "spreading direction relative to the motion"),
)
def _cmd_packet_spread(p: dict):
    if p["width0"] is not None and p["full-length"] is not None:
        raise DomainError("give either --width0 or --full-length, not both")
    width0 = p["width0"] if p["full-length"] is None else 0.5 * p["full-length"]
    width0 = 2e-15 if width0 is None else width0

    disp = wavepacket.Dispersion(p["mass-kg"])
    k0 = wavepacket.carrier_wavenumber(disp, p["kinetic-mev"] * 1e6 * E_CHARGE)
    result = wavepacket.spread_after_flight(
        disp, k0, width0, p["distance"], p["direction"]
    )
    return {
        "mass_kg": p["mass-kg"],
        "kinetic_mev": p["kinetic-mev"],
        "k0": k0,
        "width0": width0,
        "initial_full_length": 2.0 * width0,
        "distance": p["distance"],
        "direction": p["direction"],
        **result,
        "final_full_length": 2.0 * result["final_width"],
    }


@_command(
    "packet coherence", "autocorrelation profile and coherence length",
    ("sigma", _posflt, 1.0, "Gaussian width"),
    ("points", _posint, 2048, "grid points"),
    ("span-sigmas", _posflt, 8.0, "half grid span in units of sigma"),
    ("shifts", _float_list(), None, "probe shifts (default 0.5, 1, 2 sigma)"),
)
def _cmd_packet_coherence(p: dict):
    sigma = p["sigma"]
    num = p["points"]
    if num < numkit.MIN_SAMPLES:
        raise DomainError(f"parameter points: need at least {numkit.MIN_SAMPLES}")
    half = p["span-sigmas"] * sigma
    spacing = 2.0 * half / (num - 1)
    psi = numkit.sampled_gaussian(0.0, sigma, -half, spacing, num).normalized()
    shifts = p["shifts"] if p["shifts"] is not None else [0.5 * sigma, sigma, 2 * sigma]
    gammas, length = wavepacket.coherence_profile(psi, shifts)
    fields = {
        "sigma": sigma,
        "shifts": list(shifts),
        "gamma": list(gammas),
        "coherence_length": length,
        "gaussian_expected": 2.0 * sigma,
    }
    if length is not None:
        fields["ratio_to_gaussian"] = length / (2.0 * sigma)
    return fields


@_command(
    "packet accum", "classical energy-accumulation time at an absorber",
    ("threshold-ev", _posflt, 2.18, "energy the site must soak up"),
    ("flux", _posflt, 3.5e-13, "incident energy flux (W/m^2)"),
    ("area", _posflt, 1e-18, "absorbing cross-section (m^2)"),
)
def _cmd_packet_accum(p: dict):
    t = wavepacket.accumulation_time(
        p["threshold-ev"] * E_CHARGE, p["flux"], p["area"]
    )
    return {
        "threshold_ev": p["threshold-ev"],
        "flux": p["flux"],
        "area": p["area"],
        "t_accumulate_s": t,
        "t_accumulate_years": t / (365.25 * 86400.0),
    }


@_command(
    "packet sterngerlach", "deflection angle in a field gradient",
    ("mu-z", _flt, wavepacket.BOHR_MAGNETON, "magnetic moment component (J/T)"),
    ("grad-b", _flt, 1e3, "field gradient (T/m)"),
    ("dt", _posflt, 7e-5, "transit time through the gradient (s)"),
    ("p-y", _posflt, 8.96e-23, "forward momentum (kg m/s)"),
)
def _cmd_packet_sterngerlach(p: dict):
    alpha = wavepacket.stern_gerlach_deflection(
        p["mu-z"], p["grad-b"], p["dt"], p["p-y"]
    )
    return {
        "mu_z": p["mu-z"],
        "grad_b": p["grad-b"],
        "dt": p["dt"],
        "p_y": p["p-y"],
        "alpha_rad": alpha,
        "split_angle_rad": 2.0 * abs(alpha),
        "bohr_magneton": wavepacket.BOHR_MAGNETON,
    }


@_command(
    "cavity", "thermal mode occupation spectrum of a cavity",
    ("temperature", _posflt, 5800.0, "cavity temperature (K)"),
    ("volume", _posflt, 1.0, "cavity volume (m^3)"),
    ("statistics", _choice("bose", "fermi", "boltzmann"), "bose",
     "occupancy statistics"),
    ("mu", _flt, 0.0, "chemical potential (J)"),
    ("bins", _posint, 200, "log-spaced frequency bins"),
    ("x-lo", _posflt, 1e-3, "lowest h nu / k T"),
    ("x-hi", _posflt, 40.0, "highest h nu / k T"),
    ("polarizations", _posint, 2, "polarizations per mode (1 or 2)"),
    ("entropy", _boolean, False, "also report entropy and its derivatives"),
    table=True,
)
def _cmd_cavity(p: dict):
    if p["polarizations"] not in (1, 2):
        raise DomainError("parameter polarizations: must be 1 or 2")
    statistics = quantstat.Statistics(p["statistics"])
    temperature, volume = p["temperature"], p["volume"]
    photon = statistics is quantstat.Statistics.BOSE and p["mu"] == 0.0
    cavity = quantstat.CavitySpec(volume, temperature, p["mu"], statistics)
    bins = quantstat.photon_bins(
        volume, temperature, p["bins"], p["x-lo"], p["x-hi"], p["polarizations"]
    )
    counts = quantstat.spectral_distribution(cavity, bins)

    eps, g = bins.epsilon, bins.g
    nu = eps / H_PLANCK
    x = eps / (K_BOLTZMANN * temperature)
    u_density = counts * eps / (volume * (bins.d_epsilon / H_PLANCK))
    total_energy = float(np.sum(counts * eps))
    fields = {
        "statistics": statistics.value,
        "temperature": temperature,
        "volume": volume,
        "bins": p["bins"],
        "polarizations": p["polarizations"],
        "total_modes": float(np.sum(g)),
        "total_number": float(np.sum(counts)),
        "total_energy": total_energy,
        "peak_x": float(x[int(np.argmax(u_density))]),
    }
    if photon and p["polarizations"] == 2:
        fields["stefan_boltzmann_ratio"] = total_energy / (
            quantstat.RADIATION_CONSTANT * temperature**4 * volume
        )
    if p["entropy"]:
        s, ds_de, ds_dn = quantstat.entropy_and_derivatives(cavity, bins)
        fields.update(entropy=s, ds_de=ds_de, ds_dn=ds_dn,
                      ds_de_times_t=ds_de * temperature)
    fields.update(nu=nu, g=g, mean_counts=counts)
    return fields, {"nu": nu, "x": x, "g": g, "count": counts, "energy_density": u_density}


@_command(
    "counts", "detector count distribution from g cells",
    ("stat", _choice("bose", "fermi", "boltzmann"), "bose",
     "occupancy statistics"),
    ("g", _posint, 1, "cells per packet"),
    ("mbar", _posflt, None, "mean detector count (g eta s_bar)"),
    ("sbar", _posflt, None, "mean occupancy per cell"),
    ("eta", _posflt, 1.0, "detection efficiency in (0, 1]"),
    ("mmax", _posint, None, "truncate the reported distribution at this count"),
    ("mc", _posint, None, "also sample this many Monte Carlo counts"),
    table=True,
)
def _cmd_counts(p: dict):
    statistics = quantstat.Statistics(p["stat"])
    g = p["g"]
    if (p["mbar"] is None) == (p["sbar"] is None):
        raise DomainError("give exactly one of --mbar or --sbar")
    eta = p["eta"]
    s_bar = p["sbar"] if p["sbar"] is not None else p["mbar"] / (g * eta)
    dist = quantstat.count_distribution(statistics, g, s_bar, eta)
    w = dist.w if p["mmax"] is None else dist.w[: p["mmax"] + 1]

    fields = {
        "statistics": statistics.value,
        "g": g,
        "s_bar": s_bar,
        "eta": eta,
        "m_bar": dist.m_bar,
        "variance": quantstat.count_variance(statistics, g, dist.m_bar),
        "distribution_variance": dist.central_moment(2),
        "w": w,
    }
    n = p["mc"]
    if n is not None:
        if n < 2:
            raise DomainError("parameter mc: need at least 2 samples")
        rng = numkit.RandomStream(p["seed"], 0)
        s1, s2 = quantstat.sample_count_moments(statistics, g, s_bar, eta, n, rng,
                                                workers=p["shards"])
        mean = s1 / n
        fields["mc_samples"] = n
        fields["mc_mean"] = mean
        fields["mc_variance"] = (s2 - n * mean**2) / (n - 1)
        mu4 = dist.central_moment(4)
        fields["variance_three_sigma"] = 3.0 * math.sqrt(
            max(mu4 - dist.central_moment(2) ** 2, 0.0) / n
        )
    return fields, {"m": np.arange(w.size), "W": w}


@_command(
    "balance", "detailed-balance and Einstein-coefficient identities",
    ("trials", _posint, 1000, "random detailed-balance parameter sets"),
    ("broken-trials", _posint, 100, "trials with a mismatched second constant"),
    ("temperatures", _float_list(), [250.0, 300.0, 1000.0, 5800.0],
     "Einstein-balance temperatures (K)"),
    ("frequencies", _float_list(), [1e12, 1e13, 1e14, 1e15],
     "Einstein-balance frequencies (Hz)"),
)
def _cmd_balance(p: dict):
    # each draw is reduced as it is made, so memory stays flat at any count;
    # the intact draws are all made before the first broken one
    rng = numkit.RandomStream(p["seed"], 0)
    intact = (quantstat.sample_balance_args(rng) for _ in range(p["trials"]))
    max_residual = max((quantstat.balance_residual(**a) for a in intact), default=0.0)
    broken = (quantstat.sample_balance_args(rng) for _ in range(p["broken-trials"]))
    broken_min = min(
        (quantstat.balance_residual(**a, b2=1.05 * a["b"]) for a in broken),
        default=math.inf,
    )

    einstein = [quantstat.einstein_balance(t, nu, 1.0, 1e9)
                for t in p["temperatures"] for nu in p["frequencies"]]
    einstein_max = max([0.0] + [abs(lhs - rhs) / lhs for lhs, rhs, _ in einstein])
    a_over_b = [
        [nu, quantstat.einstein_balance(300.0, nu, 1.0, 1e9)[2]]
        for nu in p["frequencies"]
    ]
    return {
        "trials": p["trials"],
        "max_residual": max_residual,
        "broken_trials": p["broken-trials"],
        "broken_min_residual": broken_min,
        "einstein_max_residual": einstein_max,
        "a_over_b": a_over_b,
    }


@_command(
    "vonlaue", "degree-of-freedom count of a bounded ray bundle",
    ("area", _posflt, 1e-4, "bundle cross-section (m^2)"),
    ("length", _posflt, 1.0, "bundle length (m)"),
    ("dnu", _posflt, 1e9, "bundle spectral width (Hz)"),
    ("focal-area", _posflt, 1e-8, "focal spot area (m^2)"),
    ("packet-dy", _posflt, 1e-3, "packet length (m)"),
    ("packet-dnu", _posflt, None, "packet spectral width (Hz)"),
    ("r", _posflt, 2.0 * math.pi, "extension convention Dy Dnu = r c / 4 pi"),
)
def _cmd_vonlaue(p: dict):
    f_count, n1, n2, n3, ratio = quantstat.vonlaue_dof(
        p["area"],
        p["length"],
        p["dnu"],
        p["focal-area"],
        p["packet-dy"],
        p["packet-dnu"],
        p["r"],
    )
    return {
        "field_dof": f_count,
        "n_spectral": n1,
        "n_transverse": n2,
        "n_longitudinal": n3,
        "packet_product_over_field_dof": ratio,
        "r": p["r"],
    }


# invocations that several checks read: (command key, config), the config
# resolved as a --config file would be, at regress's own --seed and --shards
_CHSH_QM = ("chsh", {"mc": 200000})
_LHV_SEMICLASSICAL = ("lhv", {"family": "semiclassical", "settings": 50})
_ACCUM = ("packet accum", {})
_BALANCE = ("balance",
            {"trials": 200, "temperatures": [300.0], "frequencies": [1e13]})
_BOSE_G1 = ("counts", {"stat": "bose", "g": 1, "sbar": 1.0})
_ENTROPY = ("cavity", {"temperature": 1000.0, "entropy": True})


def _geometric_gap(fields) -> float:
    # the g = 1 Bose law at mean 1 is geometric, W(m) = 2^-(m + 1)
    w = fields["w"]
    return np.max(np.abs(w - 0.5 ** (np.arange(w.size) + 1.0)))


def _poisson2_distance(fields) -> float:
    # total variation to Poisson(2), whose pmf is in the term order of
    # scipy.stats.poisson's log-pmf
    w = fields["w"]
    k = np.arange(w.size)
    poisson = np.exp(k * math.log(2.0) - numkit.gammaln(k + 1) - 2.0)
    return 0.5 * float(np.sum(np.abs(w - poisson))) + 0.5 * float(1.0 - poisson.sum())


# (name, expected, tol, mode, invocation, field) of every regress check, in
# record order; field names a field of the invocation's record or is a
# function of its fields. Rows without an invocation check what no
# subcommand computes (_bespoke_values). Each expected literal was computed
# away from the code path it checks.
_REGRESSION_CHECKS = [
    ("chsh_qm_closed", 2.8284271247461903, 1e-9, "abs", _CHSH_QM, "K"),
    ("chsh_sc_closed", 0.9428090415820635, 1e-12, "abs",
     ("chsh", {"model": "sc"}), "K"),
    ("chsh_qm_mc", 2.8284271247461903, 0.02, "abs", _CHSH_QM, "K_mc"),
    ("marginal_half", 0.0, 1e-12, "le", None, None),
    # a at 45 degrees, b = z = the quantization axis n:
    # m = 0 gives a.b - 2 (a.n)(b.n) = -cos 45, m = 1 gives (a.n)(b.n)
    ("triplet_m0_expectation", -0.7071067811865476, 1e-12, "abs", None, None),
    ("triplet_m1_expectation", 0.7071067811865476, 1e-12, "abs", None, None),
    ("lhv_random_max_K", 2.0, spincorr.CHSH_BOUND_TOL, "le",
     ("lhv", {"models": 50, "settings": 50}), "max_K"),
    ("lhv_semiclassical_canonical_K", 0.9428090415820635, 1e-9, "abs",
     _LHV_SEMICLASSICAL, "canonical_K"),
    ("lhv_semiclassical_max_K", 4.0 / 3.0, spincorr.CHSH_BOUND_TOL, "le",
     _LHV_SEMICLASSICAL, "max_K"),
    ("lhv_sign_max_K", 2.0, spincorr.CHSH_BOUND_TOL, "le",
     ("lhv", {"family": "sign", "models": 20, "settings": 50, "n-lambda": 64}), "max_K"),
    ("nosignal_max_deviation", 0.0, 1e-10, "le",
     ("nosignal", {"trials": 20, "max-dim": 8}), "max_deviation"),
    ("reduce_window_mass", 1.0, 1e-12, "abs",
     ("reduce", {"coeffs": [0.6, 0.8], "window": [1]}),
     lambda f: f["output_probabilities"][1]),
    ("reduce_pick_certain", 0.0, 0.0, "abs",
     ("reduce", {"coeffs": [1.0, 0.0, 0.0], "mode": "pick"}), "picked"),
    ("condspace_conditional_norm", 1.0, 1e-9, "abs",
     ("condspace", {}), "conditional_integral"),
    ("condspace_product_residual", 0.0, 1e-8, "le",
     ("condspace", {"symmetry": "none"}), "schmidt_residual"),
    ("accumulation_time_s", 997927160605.7142, 1e-12, "rel", _ACCUM, "t_accumulate_s"),
    ("accumulation_vs_paper_1e12", 1.0e12, 0.05, "rel", _ACCUM, "t_accumulate_s"),
    ("proton_spread_m", 0.023, 0.1, "rel", ("packet spread", {}), "final_width"),
    ("heisenberg_gaussian_product", 0.5, 0.01, "rel", None, None),
    ("coherence_length_gaussian", 2.0, 0.01, "rel",
     ("packet coherence", {}), "coherence_length"),
    ("planck_peak_x", 2.8214393721220787, 0.01, "abs",
     ("cavity", {"bins": 2000, "x-lo": 0.5, "x-hi": 10.0}), "peak_x"),
    ("photon_mode_count", 1.165971040577118e15, 1e-12, "rel", None, None),
    ("einstein_identity_residual", 0.0, 1e-10, "le", _BALANCE, "einstein_max_residual"),
    ("einstein_a_over_b_1e15", 3.0903223630929913e-13, 1e-12, "rel",
     ("balance", {"trials": 1, "broken-trials": 1, "frequencies": [1e15]}),
     lambda f: f["a_over_b"][0][1]),
    ("balance_max_residual", 0.0, 1e-12, "le", _BALANCE, "max_residual"),
    ("balance_intact_fixed", 0.0, 1e-12, "le", None, None),
    ("balance_broken_fixed", 1e-3, 0.0, "ge", None, None),
    ("counts_bose_g1_w", 0.0, 1e-12, "le", _BOSE_G1, _geometric_gap),
    ("counts_bose_g1_variance", 2.0, 1e-9, "abs", _BOSE_G1, "distribution_variance"),
    ("counts_fermi_g1_w0", 0.7, 1e-12, "abs",
     ("counts", {"stat": "fermi", "g": 1, "sbar": 0.3}), lambda f: f["w"][0]),
    ("counts_binomial_fold", 0.0, 1e-12, "le", None, None),
    ("counts_bose_poisson_tv", 0.0, 1e-3, "le",
     ("counts", {"stat": "bose", "g": 10000, "sbar": 2e-4}), _poisson2_distance),
    ("vonlaue_ratio_r_2pi", 1.0, 1e-10, "abs",
     ("vonlaue", {}), "packet_product_over_field_dof"),
    ("vonlaue_ratio_r_1", 2.0 * math.pi, 1e-10, "rel",
     ("vonlaue", {"r": 1.0}), "packet_product_over_field_dof"),
    ("bohr_magneton", 9.2740100783e-24, 1e-6, "rel",
     ("packet sterngerlach", {}), "bohr_magneton"),
    ("entropy_ds_de_times_t", 1.0, 0.01, "abs", _ENTROPY, "ds_de_times_t"),
    ("entropy_ds_dn_over_k", 0.0, 0.01, "le",
     _ENTROPY, lambda f: abs(f["ds_dn"]) / K_BOLTZMANN),
    ("stefan_boltzmann_ratio", 1.0, 0.005, "abs",
     ("cavity", {"temperature": 1000.0, "bins": 500}), "stefan_boltzmann_ratio"),
]


def _bespoke_values(p: dict) -> dict:
    """The value of every regress check that no subcommand computes."""
    v = {}
    # marginal reads only cos(theta), so fixed axes test it as well as drawn ones
    axes = [spincorr.coplanar_axis(math.radians(d)) for d in (0, 45, 90, -45, 30, 60, 120)]
    v["marginal_half"] = max(
        abs(spincorr.marginal(model, a, b, r_b) - 0.5)
        for model in (_PAIR_MODELS["qm"](), _PAIR_MODELS["sc"]())
        for a in axes for b in axes for r_b in (+1, -1))

    z = numkit.UnitVector3(0.0, 0.0, 1.0)
    a45 = spincorr.coplanar_axis(math.radians(45.0))
    for m in (0, 1):
        triplet = spincorr.PairModel.triplet(m, z)
        v[f"triplet_m{m}_expectation"] = spincorr.expectation(triplet, a45, z)

    min_gauss = numkit.sampled_gaussian(0.0, 1.3, -16.0, 32.0 / 1023, 1024).normalized()
    dx, dk = numkit.fourier_widths(min_gauss)
    v["heisenberg_gaussian_product"] = dx * dk
    v["photon_mode_count"] = quantstat.photon_mode_count(1.0, 5e14, 1e10)

    # one fixed parameter set so the detection of a mismatched constant
    # does not ride on the seed
    fixed = dict(a=1.0, a_prime=1.2, b=0.8, c=0.3, c_prime=-0.2, n=2, n_prime=1,
                 e1i=1.5, e1f=1.1, e2i=1.0, e2f=1.8, s=4.0, r=2.0,
                 s_prime=3.0, r_prime=1.5)
    v["balance_intact_fixed"] = quantstat.balance_residual(**fixed)
    v["balance_broken_fixed"] = quantstat.balance_residual(**fixed, b2=0.88)
    v["counts_binomial_fold"] = quantstat.binomial_fold_check(5, 7, 0.3)
    return v


def _subcommand_fields(p: dict, key: str, config: dict) -> dict:
    """The fields of one subcommand's record at p's --seed and --shards."""
    command = _COMMANDS[key]
    given = {"seed": p["seed"], "shards": p["shards"]}
    return command.handler(_resolve(command.flags, config, given))[0]


_CHECK_MODES = {
    "abs": lambda value, expected, tol: abs(value - expected) <= tol,
    "rel": lambda value, expected, tol: abs(value - expected) <= tol * abs(expected),
    "le": lambda value, expected, tol: value <= expected + tol,
    "ge": lambda value, expected, tol: value >= expected - tol,
}


@_command("regress", "fixed-seed regression record over all modules")
def _cmd_regress(p: dict):
    bespoke = _bespoke_values(p)
    records = {}  # one run of each distinct invocation
    checks = []
    for name, expected, tol, mode, invocation, field in _REGRESSION_CHECKS:
        if invocation is None:
            value = bespoke[name]
        else:
            key = repr(invocation)
            if key not in records:
                records[key] = _subcommand_fields(p, *invocation)
            record = records[key]
            value = record[field] if isinstance(field, str) else field(record)
        value = float(value)
        ok = bool(_CHECK_MODES[mode](value, expected, tol))
        checks.append({"name": name, "value": value, "expected": expected,
                       "tol": tol, "mode": mode, "ok": ok})
    failures = sum(1 for ch in checks if not ch["ok"])
    return {
        "checks": checks,
        "total": len(checks),
        "failures": failures,
        "all_ok": failures == 0,
    }


# ---------------------------------------------------------------------------
# wiring


def _parse_argv(argv) -> tuple:
    """(key, {flag: raw value}) read from argv; for --help, (key or None, None)."""
    words = list(argv)
    packet = words[:1] == ["packet"]  # an optional prefix of the packet commands
    if len(words) == packet:
        raise DomainError("missing command; packetlab --help lists them")
    head, *rest = words[packet:]
    if head in ("-h", "--help"):
        return None, None
    key = head if head in _COMMANDS and not packet else f"packet {head}"
    if key not in _COMMANDS:
        got = " ".join(words[: packet + 1])
        raise DomainError(f"unknown command: {got}; packetlab --help lists them")
    convs = {name: conv for name, conv, *_ in _COMMANDS[key].flags}
    given = {}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return key, None
        name, eq, raw = token[2:].partition("=")
        if not token.startswith("--") or name not in convs:
            raise DomainError(f"{key} has no flag {token}")
        boolean = convs[name] is _boolean
        if boolean and eq:
            raise DomainError(f"flag --{name} takes no value")
        if not (boolean or eq):
            raw = next(tokens, None)
            if raw is None:
                raise DomainError(f"flag --{name} needs a value")
        given[name] = True if boolean else raw
    return key, given


def _usage(key) -> str:
    """The --help text: every command, or one command's flags and defaults."""
    if key is None:
        head = ("COMMAND [--FLAG V ...]\n\nCOMMAND --help lists its flags; "
                "the packet commands may drop the word packet")
        rows = [(k, c.help) for k, c in _COMMANDS.items()]
    else:
        head = f"{key} [--FLAG V ...]\n\n{_COMMANDS[key].help}"
        rows = []
        for name, conv, default, text in _COMMANDS[key].flags:
            if isinstance(default, list):
                default = ",".join(map(str, default))
            flag = f"--{name}" if conv is _boolean else f"--{name} V"
            shown = "" if default is None or conv is _boolean else f" (default: {default})"
            rows.append((flag, text + shown))
    return f"usage: packetlab {head}\n\n" + "".join(f"  {a:<20} {b}\n" for a, b in rows)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DomainError("config must be a JSON object")
    return data


def _resolve(flags, config: dict, given: dict) -> dict:
    """Each flag's typed value from argv, else from config, else its default."""
    allowed = {name for name, *_ in flags if name != "config"}
    unknown = sorted(key for key in config if key not in allowed)
    if unknown:
        raise DomainError(f"unknown config keys: {', '.join(unknown)}")
    params = {}
    for name, conv, default, _help in flags:
        raw = given.get(name, config.get(name))
        params[name] = default if raw is None else conv(raw, name)
    return params


def run(argv, stdout=None, stderr=None) -> int:
    """Parse argv, execute, write one record. Returns the exit code.

    Warnings raised during the run go to stderr as one `warning: <message>`
    line each, after the warnings filters in force have had their say.
    """
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        key, given = _parse_argv(argv)
        if given is None:
            stdout.write(_usage(key))
            return 0
        command = _COMMANDS[key]
        params = _resolve(command.flags, _load_config(given.get("config")), given)
        if params["format"] == "csv" and not command.table:
            names = ", ".join(sorted(k for k, c in _COMMANDS.items() if c.table))
            raise DomainError(f"csv output is only available for {names}")
        with warnings.catch_warnings(record=True) as caught:
            try:
                fields, columns = command.handler(params)
            finally:
                for w in caught:
                    print(f"warning: {w.message}", file=stderr)

        if params["format"] == "csv":
            text = _render_csv(columns)
        else:
            record = {"command": key, "seed": params["seed"], "params": params, **fields}
            text = _render_json(record) + "\n"
        if params["out"] is not None:
            try:
                with open(params["out"], "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise DomainError(f"cannot write output: {exc}") from None
        else:
            stdout.write(text)
        if key == "regress" and not fields["all_ok"]:
            return 2
        return 0
    except (PacketLabError, MemoryError, ArithmeticError, Warning) as exc:
        # a DomainError is bad input; any other library error, a refused allocation,
        # an arithmetic fault or a warning raised as an error is a numerical failure
        message = str(exc) or "out of memory"
        if isinstance(exc, ArithmeticError):  # math's OverflowError holds (errno, text)
            message = f"arithmetic failure: {(exc.args or [type(exc).__name__])[-1]}"
        print(f"error: {message}", file=stderr)
        return 1 if isinstance(exc, DomainError) else 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
