"""Command-line interface: parsing, config, output contracts, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import packetlab
from packetlab import cli, numkit, spincorr
from packetlab.cli import run
from packetlab.errors import AccuracyWarning, DomainError, NumericalError
from packetlab.numkit import K_BOLTZMANN

# the wide default photon window includes sparse near-pole bins; their
# Stirling warning is by design and not under test here
pytestmark = pytest.mark.filterwarnings(
    "ignore::packetlab.errors.AccuracyWarning"
)

TWO_SQRT_TWO = 2.8284271247461903
SC_K = 0.9428090415820635

# (name, expected, tol, mode) of every regress check, in record order
REGRESS_TABLE = [
    ("chsh_qm_closed", TWO_SQRT_TWO, 1e-9, "abs"),
    ("chsh_sc_closed", SC_K, 1e-12, "abs"),
    ("chsh_qm_mc", TWO_SQRT_TWO, 0.02, "abs"),
    ("marginal_half", 0.0, 1e-12, "le"),
    ("triplet_m0_expectation", -0.7071067811865476, 1e-12, "abs"),
    ("triplet_m1_expectation", 0.7071067811865476, 1e-12, "abs"),
    ("lhv_random_max_K", 2.0, 1e-9, "le"),
    ("lhv_semiclassical_canonical_K", SC_K, 1e-9, "abs"),
    ("lhv_semiclassical_max_K", 1.3333333333333333, 1e-9, "le"),
    ("lhv_sign_max_K", 2.0, 1e-9, "le"),
    ("nosignal_max_deviation", 0.0, 1e-10, "le"),
    ("reduce_window_mass", 1.0, 1e-12, "abs"),
    ("reduce_pick_certain", 0.0, 0.0, "abs"),
    ("condspace_conditional_norm", 1.0, 1e-9, "abs"),
    ("condspace_product_residual", 0.0, 1e-8, "le"),
    ("actionprob_kappa", 0.1994577194163703, 1e-14, "rel"),
    ("actionprob_spread", 1.0849742954699548e-05, 2e-14, "abs"),
    ("accumulation_time_s", 997927160605.7142, 1e-12, "rel"),
    ("accumulation_vs_paper_1e12", 1e12, 0.05, "rel"),
    ("proton_spread_m", 0.023, 0.1, "rel"),
    ("heisenberg_gaussian_product", 0.5, 0.01, "rel"),
    ("coherence_length_gaussian", 2.0, 0.01, "rel"),
    ("planck_peak_x", 2.8214393721220787, 0.01, "abs"),
    ("photon_mode_count", 1165971040577118.0, 1e-12, "rel"),
    ("einstein_identity_residual", 0.0, 1e-10, "le"),
    ("einstein_a_over_b_1e15", 3.0903223630929913e-13, 1e-12, "rel"),
    ("balance_max_residual", 0.0, 1e-12, "le"),
    ("balance_intact_fixed", 0.0, 1e-12, "le"),
    ("balance_broken_fixed", 0.001, 0.0, "ge"),
    ("counts_bose_g1_w", 0.0, 1e-12, "le"),
    ("counts_bose_g1_variance", 2.0, 1e-9, "abs"),
    ("counts_fermi_g1_w0", 0.7, 1e-12, "abs"),
    ("counts_binomial_fold", 0.0, 1e-12, "le"),
    ("counts_bose_poisson_tv", 0.0, 0.001, "le"),
    ("vonlaue_ratio_r_2pi", 1.0, 1e-10, "abs"),
    ("vonlaue_ratio_r_1", 6.283185307179586, 1e-10, "rel"),
    ("bohr_magneton", 9.2740100783e-24, 1e-6, "rel"),
    ("entropy_ds_de_times_t", 1.0, 1e-13, "abs"),
    ("entropy_ds_dn_over_k", 0.0, 1e-13, "le"),
    ("stefan_boltzmann_ratio", 1.0, 0.005, "abs"),
]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def record(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, f"exit {code}, stderr: {err!r}"
    return json.loads(out)


def _child_env() -> dict:
    """The environment of a new interpreter with this packetlab importable."""
    src = os.path.dirname(os.path.dirname(packetlab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def fresh_process(*args, check=True, env=None) -> subprocess.CompletedProcess:
    """A new interpreter run with args and this packetlab importable."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=_child_env() if env is None else env,
        check=check,
    )


def fresh_python(code: str, env=None) -> str:
    """stdout of a new interpreter that runs code."""
    return fresh_process("-c", code, env=env).stdout


# A child's ru_maxrss, from wait4 or from its own getrusage, starts from
# the peak of the process that started it: subprocess starts children by
# vfork, and at exec the kernel carries the shared memory map's high-water
# mark into the child's figure. VmHWM belongs to the child's own map.
_OWN_PEAK = """
import atexit, runpy, sys

def report():
    try:
        with open("/proc/self/status") as status:
            kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except OSError:  # no /proc: ru_maxrss, which may include the parent's peak
        import resource
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kb //= 1024 if sys.platform == "darwin" else 1
    sys.stderr.write(f"peak_kb {kb}\\n")

atexit.register(report)
runpy.run_module("packetlab.cli", run_name="__main__", alter_sys=True)
"""


def own_peak_run(*argv) -> tuple:
    """(exit code, stdout, peak RSS in MB) of `packetlab argv` in a fresh
    process, the peak as the child reads its own at exit."""
    done = fresh_process("-c", _OWN_PEAK, *argv, check=False)
    *_, last = done.stderr.splitlines()
    name, kb = last.split()
    assert name == "peak_kb", done.stderr
    return done.returncode, done.stdout, int(kb) / 1024


STIRLING_WARNING = (
    "warning: some occupancy classes hold fewer than 10 cells; "
    "the Stirling entropy is degraded\n"
)


# scipy, and mpmath, which only the tests' oracles use
SCIPY_MODULES = (
    "import sys; "
    "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
)


class TestChsh:
    def test_singlet_closed_form(self):
        rec = record("chsh")
        assert rec["command"] == "chsh"
        assert rec["K"] == pytest.approx(TWO_SQRT_TWO, rel=1e-12)
        assert len(rec["settings"]) == 4

    def test_semiclassical_closed_form(self):
        rec = record("chsh", "--model", "sc")
        assert rec["K"] == pytest.approx(SC_K, rel=1e-12)

    def test_custom_angles(self):
        rec = record("chsh", "--angles-deg", "0,30,60,90")
        e = lambda d: -math.cos(math.radians(d))
        expected = abs(e(30) + e(90) + e(30) - e(30))
        assert rec["K"] == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_estimate(self):
        rec = record("chsh", "--mc", "200000")
        assert rec["samples_per_setting"] == 200000
        assert abs(rec["K_mc"] - rec["K"]) < rec["three_sigma"]

    def test_seed_moves_estimate_not_closed_form(self):
        r0 = record("chsh", "--mc", "5000", "--seed", "0")
        r1 = record("chsh", "--mc", "5000", "--seed", "1")
        assert r0["K"] == r1["K"]
        assert r0["K_mc"] != r1["K_mc"]

    def test_sharded_estimate_stays_consistent(self):
        rec = record("chsh", "--mc", "50000", "--shards", "4")
        assert abs(rec["K_mc"] - rec["K"]) < rec["three_sigma"]


class TestShards:
    # --shards only sets the worker threads; the draws follow from argv
    @pytest.mark.parametrize("argv", [
        ("sample", "--n", "200003", "--seed", "5"),
        ("sample", "--model", "sc", "--n", "65537", "--angles-deg", "10,70"),
        ("chsh", "--mc", "70001", "--seed", "3"),
        ("counts", "--stat", "bose", "--g", "4", "--mbar", "8", "--mc", "150000"),
    ])
    def test_records_do_not_depend_on_the_shard_count(self, argv):
        records = []
        for shards in ("1", "2", "3", "7"):
            rec = record(*argv, "--shards", shards)
            assert rec["params"].pop("shards") == int(shards)
            records.append(rec)
        assert all(rec == records[0] for rec in records[1:])

    @staticmethod
    def assert_unbiased(rec):
        # a pin taken from a biased stream would still be a pin; within 5
        # sigma of the closed form it is a fair draw of the singlet
        gap = abs(rec["expectation_estimate"] - rec["expectation_closed_form"])
        assert gap <= 5.0 / 3.0 * rec["three_sigma"]

    def test_pinned_counts_at_one_shard(self):
        rec = record("sample", "--n", "1000")
        counts = [rec[k] for k in ("n_pp", "n_pm", "n_mp", "n_mm")]
        assert counts == [82, 419, 432, 67]
        self.assert_unbiased(rec)

    def test_shard_count_beyond_the_cpus_is_a_cap(self):
        # one block of 10 pairs: no thread starts, however large N is
        want = record("sample", "--n", "10")
        done = subprocess.run(
            [sys.executable, "-m", "packetlab.cli", "sample", "--n", "10",
             "--shards", "1000000000000"],
            capture_output=True, text=True, timeout=60, env=_child_env(),
        )
        assert done.returncode == 0, done.stderr
        rec = json.loads(done.stdout)
        assert rec["params"].pop("shards") == 10**12
        want["params"].pop("shards")
        assert rec == want

    def test_lhv_audits_its_blocks_on_the_shard_threads(self, monkeypatch):
        # lhv's setting blocks run through numkit.run_blocks like every
        # Monte Carlo loop; the largest K over blocks is the same at any count
        argv = ("lhv", "--family", "random", "--models", "2",
                "--settings", str(2 * numkit.MC_BLOCK + 3))
        want = record(*argv, "--shards", "1")
        monkeypatch.setattr(numkit.os, "cpu_count", lambda: 2)
        threads, real = set(), spincorr.lhv_chsh_audit

        def audit(model, *axes):
            threads.add(threading.get_ident())
            return real(model, *axes)

        monkeypatch.setattr(cli.spincorr, "lhv_chsh_audit", audit)
        rec = record(*argv, "--shards", "2")
        assert len(threads) > 1
        assert rec["params"].pop("shards") == 2
        want["params"].pop("shards")
        assert rec == want

    def test_ten_million_pairs_in_bounded_memory(self):
        # fixed blocks of 65,536 pairs; one array of all 4e7 uniforms
        # alone would take 320 MB
        code, out, peak_mb = own_peak_run("sample", "--n", "10000000")
        assert code == 0
        assert peak_mb < 200.0
        rec = json.loads(out)
        counts = [rec[k] for k in ("n_pp", "n_pm", "n_mp", "n_mm")]
        assert counts == [732674, 4266887, 4267382, 733057]
        self.assert_unbiased(rec)


class TestBell:
    def test_default_table(self):
        rec = record("bell")
        joint = rec["joint"]
        total = joint["pp"] + joint["pm"] + joint["mp"] + joint["mm"]
        assert total == pytest.approx(1.0, abs=1e-12)
        assert rec["expectation"] == pytest.approx(
            -math.cos(math.radians(45.0)), rel=1e-12
        )
        assert rec["marginal_b_plus"] == pytest.approx(0.5, abs=1e-12)
        assert rec["marginal_b_minus"] == pytest.approx(0.5, abs=1e-12)

    def test_vector_flags_renormalize_with_warning(self):
        # the notice is an AccuracyWarning, which this module ignores elsewhere
        with warnings.catch_warnings():
            warnings.simplefilter("default", AccuracyWarning)
            code, out, err = run_cli("bell", "--a", "0,0,2", "--b", "0,0,1")
        assert code == 0
        assert "direction a renormalized from |v| = 2" in err
        rec = json.loads(out)
        assert rec["expectation"] == pytest.approx(-1.0, abs=1e-12)

    def test_angles_and_vectors_conflict(self):
        code, _, err = run_cli(
            "bell", "--angles-deg", "0,45", "--a", "1,0,0", "--b", "1,0,0"
        )
        assert code == 1
        assert "not both" in err

    def test_missing_partner_vector(self):
        code, _, err = run_cli("bell", "--a", "1,0,0")
        assert code == 1
        assert "missing direction vectors: b" in err


class TestConfig:
    def test_config_mirrors_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "sc"}))
        rec = record("chsh", "--config", str(cfg))
        assert rec["K"] == pytest.approx(SC_K, rel=1e-12)

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "sc"}))
        rec = record("chsh", "--config", str(cfg), "--model", "qm")
        assert rec["K"] == pytest.approx(TWO_SQRT_TWO, rel=1e-12)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "sc", "bogus": 1}))
        code, _, err = run_cli("chsh", "--config", str(cfg))
        assert code == 1
        assert "unknown config keys: bogus" in err

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli("chsh", "--config", str(cfg))
        assert code == 1
        assert "JSON object" in err

    def test_invalid_json_reported(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_cli("chsh", "--config", str(cfg))
        assert code == 1
        assert "not valid JSON" in err

    def test_missing_file_reported(self, tmp_path):
        code, _, err = run_cli("chsh", "--config", str(tmp_path / "nope.json"))
        assert code == 1
        assert "cannot read config" in err


class TestOutputContracts:
    def test_identical_runs_are_byte_identical(self):
        _, first, _ = run_cli("bell", "--angles-deg", "10,70")
        _, second, _ = run_cli("bell", "--angles-deg", "10,70")
        assert first == second

    def test_record_layout(self):
        _, out, _ = run_cli("chsh", "--seed", "3")
        assert out.startswith('{"command": "chsh", "seed": 3, "params": ')
        assert out.endswith("\n")

    def test_out_file_matches_stdout(self, tmp_path):
        path = tmp_path / "rec.json"
        _, stdout_text, _ = run_cli("vonlaue")
        code, piped, _ = run_cli("vonlaue", "--out", str(path))
        assert code == 0
        assert piped == ""
        written = json.loads(path.read_text())
        reference = json.loads(stdout_text)
        # the record mirrors its own parameters, so only `out` may differ
        assert written["params"].pop("out") == str(path)
        assert reference["params"].pop("out") is None
        assert written == reference

    def test_unwritable_out_reported(self, tmp_path):
        code, _, err = run_cli("vonlaue", "--out", str(tmp_path / "no" / "x.json"))
        assert code == 1
        assert "cannot write output" in err

    def test_csv_gate_names_the_csv_commands(self):
        code, _, err = run_cli("chsh", "--format", "csv")
        assert code == 1
        assert "csv output is only available for cavity, condspace, counts" in err

    def test_counts_csv(self):
        code, out, _ = run_cli(
            "counts", "--sbar", "0.5", "--g", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,W"
        weights = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_cavity_csv(self):
        code, out, _ = run_cli(
            "cavity", "--bins", "16", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "nu,x,g,count,energy_density"
        assert len(lines) == 17

    def test_csv_cells_render_like_json_scalars(self):
        columns = {"a": np.array([np.float64(0.1)]), "b": np.array([0.0]),
                   "c": np.array([np.int64(7)]), "d": np.array([np.bool_(True)])}
        text = cli._render_csv(columns)
        assert text == "a,b,c,d\n0.10000000000000001,0,7,true\n"

    def test_condspace_csv(self):
        code, out, _ = run_cli("condspace", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,conditional,density"
        assert len(lines) == 162


# the commands that have a table, and the README flags of each
TABLE_COMMANDS = {
    "cavity": ("--temperature", "5800", "--entropy"),
    "condspace": ("--symmetry", "fermi", "--x2", "0.5"),
    "counts": ("--stat", "bose", "--g", "1", "--mbar", "1", "--mmax", "5"),
}


class TestCsvTables:
    def test_registry_marks_the_table_commands(self):
        assert sorted(k for k, c in cli._COMMANDS.items() if c.table) == sorted(TABLE_COMMANDS)

    @pytest.mark.parametrize("key", list(cli._COMMANDS))
    def test_csv_only_for_commands_with_a_table(self, key):
        code, out, err = run_cli(*key.split(), *TABLE_COMMANDS.get(key, ()), "--format", "csv")
        if key in TABLE_COMMANDS:
            assert code == 0, err
            assert out.count("\n") > 1
        else:
            assert (code, out) == (1, "")
            assert err == "error: csv output is only available for cavity, condspace, counts\n"

    @pytest.mark.parametrize("key, pairs", [
        ("counts", {"W": "w"}),
        ("condspace", {"conditional": "conditional", "density": "density"}),
        ("cavity", {"nu": "nu", "g": "g", "count": "mean_counts"}),
    ])
    def test_csv_columns_read_as_the_json_arrays(self, key, pairs):
        argv = (key, *TABLE_COMMANDS[key])
        header, *lines = run_cli(*argv, "--format", "csv")[1].splitlines()
        table = dict(zip(header.split(","), zip(*(line.split(",") for line in lines))))
        # each JSON number as its text
        rec = json.loads(run_cli(*argv)[1], parse_float=str, parse_int=str)
        for column, field in pairs.items():
            assert list(table[column]) == rec[field]


# finite floats, with the edges of the format drawn on purpose: signed
# zeros, subnormals, the largest float and integer-valued floats
_RENDER_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.integers(-(2**60), 2**60).map(float),
)


class TestArrayRenderer:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_RENDER_FLOATS, max_size=30))
    def test_floats_render_as_the_scalar_path(self, values):
        arr = np.array(values, dtype=float)
        cells = cli._render_array(arr)
        assert cells == [cli._fmt_float(v) for v in values]
        assert cli._render_json(arr) == "[" + ", ".join(cells) + "]"

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30))
    def test_ints_render_as_the_scalar_path(self, values):
        arr = np.array(values, dtype=np.int64)
        assert cli._render_array(arr) == [cli._render_json(v) for v in arr]

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.booleans(), max_size=30))
    def test_bools_render_as_the_scalar_path(self, values):
        arr = np.array(values, dtype=bool)
        assert cli._render_array(arr) == [cli._render_json(v) for v in arr]

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(_RENDER_FLOATS, max_size=20), data=st.data())
    def test_non_finite_entry_raises_anywhere(self, values, data):
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        values.insert(data.draw(st.integers(0, len(values))), bad)
        with pytest.raises(NumericalError, match="not finite") as info:
            cli._render_array(np.array(values))
        assert str(info.value) == f"a result is not finite ({bad!r})"


_FIELD_COUNT = ("error: parameters area, length, dnu and focal-area: the field count "
                "A l dnu / (a c) ")


class TestExitCodes:
    def test_input_errors_exit_one_numerical_failures_two(self, tmp_path):
        window_cfg = tmp_path / "cfg.json"
        window_cfg.write_text('{"window": [1e300]}')
        huge_cfg = tmp_path / "huge.json"
        huge_cfg.write_text('{"temperature": 1' + "0" * 400 + "}")
        cases = [
            # a DomainError is bad input, as errors.py and the README say
            (("actionprob", "--width-ratio", "1"), 1),
            (("counts", "--stat", "fermi", "--sbar", "2"), 1),
            (("nosignal", "--max-dim", "70"), 1),
            (("coherence", "--points", "1"), 1),
            # one bin has E = eps N, so dS/dE and dS/dN cannot be separated
            (("cavity", "--bins", "1", "--entropy"), 1),
            # so is a window index too large for a C long
            (("reduce", "--coeffs", "0.6,0.8", "--window", "99999999999999999999"), 1),
            (("reduce", "--coeffs", "0.6,0.8", "--window=-99999999999999999999"), 1),
            (("reduce", "--coeffs", "0.6,0.8", "--config", str(window_cfg)), 1),
            # and a config integer too large for a float flag
            (("cavity", "--config", str(huge_cfg)), 1),
            # so is a grid whose span overflows, before any sample is taken
            (("condspace", "--grid", "-1e308,1e308,161"), 1),
            # and a product, quotient or exponent that leaves the float range
            # at an input that one flag can move back into it
            (("accum", "--flux", "1e-320"), 1),
            (("balance", "--temperatures", "1e-300"), 1),
            (("vonlaue", "--r", "1e-320"), 1),
            (("vonlaue", "--packet-dnu", "1e-320"), 1),
            (("balance", "--frequencies", "1e-300"), 1),
            # a NumericalError is a numerical failure
            (("counts", "--mbar", "1e12"), 2),
            # so is a window whose every bin's (T, mu) response underflows
            (("cavity", "--x-lo", "700", "--x-hi", "800", "--entropy"), 2),
            # so is valid input whose law misses its own normalization
            (("counts", "--stat", "bose", "--g", "10000000", "--sbar", "1e-6"), 2),
            # so is an arithmetic fault: a division by zero or an overflow
            (("coherence", "--sigma", "1e-300"), 2),
            (("condspace", "--sigmas", "1e-300,1"), 2),
            (("balance", "--frequencies", "1e300"), 2),
            # tau2 is infinite, so the record would not be strict JSON
            (("spread", "--kinetic-mev", "1e20"), 2),
            (("spread", "--mass-kg", "1e-300"), 2),
        ]
        for argv, want in cases:
            code, out, err = run_cli(*argv)
            assert code == want, argv
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("counts", "--stat", "bose", "--sbar", "1e155"),
        ("counts", "--mbar", "1", "--eta", "1e-300", "--mc", "2"),
        ("counts", "--stat", "boltzmann", "--g", "1000", "--sbar", "1e306"),
        ("counts", "--stat", "boltzmann", "--mbar", "1", "--eta", "1e-320", "--mc", "2"),
    ])
    def test_support_bound_past_float_range_reports_the_cap(self, argv):
        # the support bound overflows to inf, which used to end in
        # "cannot convert float infinity to integer"
        want = "error: count support exceeds the bookkeeping cap\n"
        assert run_cli(*argv) == (2, "", want)

    @pytest.mark.parametrize("argv, want", [
        # a sampled function holds at least numkit.MIN_SAMPLES points
        (("coherence", "--points", "5"),
         "error: parameter points: '5' is not an integer in [8, 2**53]\n"),
        (("condspace", "--grid", "-8,8,5"), "error: parameter grid: need at least 8 points\n"),
        # each range a handler or only the library checked, now declared
        (("nosignal", "--max-dim", "1"),
         "error: parameter max-dim: '1' is not an integer in [2, 64]\n"),
        (("nosignal", "--max-dim", "65"),
         "error: parameter max-dim: '65' is not an integer in [2, 64]\n"),
        (("cavity", "--polarizations", "3"),
         "error: parameter polarizations: '3' is not an integer in [1, 2]\n"),
        (("counts", "--mbar", "1", "--mc", "1"),
         "error: parameter mc: '1' is not an integer in [2, 2**53]\n"),
        (("actionprob", "--finals", "17"),
         "error: parameter finals: '17' is not an integer in [1, 16]\n"),
        (("actionprob", "--width-ratio", "1e6"),
         "error: parameter width-ratio: '1e6' is not a number in [2, 10000]\n"),
        (("counts", "--mbar", "1", "--eta", "2"),
         "error: parameter eta: '2' is not a number in (0, 1]\n"),
        (("condspace", "--sigmas", "0,1"),
         "error: parameter sigmas: '0,1' is not a list of 2 numbers in (0, inf)\n"),
    ])
    def test_small_grids_name_their_flag(self, argv, want):
        assert run_cli(*argv) == (1, "", want)

    @pytest.mark.parametrize("argv, want", [
        (("accum", "--flux", "1e-320"),
         "error: parameters flux and area: their product underflows to 0\n"),
        (("balance", "--temperatures", "1e-300"),
         "error: parameter temperatures: too low, the Planck density underflows to 0\n"),
        # k T itself underflows to 0 here
        (("balance", "--temperatures", "1e-320"),
         "error: parameter temperatures: too low, the Planck density underflows to 0\n"),
        (("vonlaue", "--r", "1e-320"),
         "error: parameter r: too small, dnu over the packet's spectral width overflows\n"),
        # the Planck density and A/B underflow to 0; at 1e-300 the mode count
        # and h nu / k T do too
        (("balance", "--frequencies", "1e-145"),
         "error: parameter frequencies: too low, the Planck density underflows to 0\n"),
        (("balance", "--frequencies", "1e-300"),
         "error: parameter frequencies: too low, the Planck density underflows to 0\n"),
        (("vonlaue", "--packet-dnu", "1e-320"),
         "error: parameter packet-dnu: too small, dnu over the packet's spectral width "
         "overflows\n"),
        # the field count that vonlaue_dof divides by overflows, or underflows to 0
        (("vonlaue", "--area", "1e300", "--length", "1e300"), _FIELD_COUNT + "overflows\n"),
        (("vonlaue", "--area", "1e300", "--length", "1e300", "--dnu", "1e300"),
         _FIELD_COUNT + "overflows\n"),
        (("vonlaue", "--dnu", "5e-324"), _FIELD_COUNT + "underflows to 0\n"),
        # spacing**2 raised OverflowError at a spacing of 6e297
        (("condspace", "--grid=-1e300,8,161"),
         "error: parameter grid: the squared spacing overflows double precision\n"),
    ])
    def test_float_range_faults_name_their_flag(self, argv, want):
        # these ended in a division by zero or an infinite record, exit 2
        assert run_cli(*argv) == (1, "", want)

    def test_bad_flag_value_exits_one(self):
        code, _, err = run_cli("sample", "--n", "0")
        assert code == 1
        assert err == "error: parameter n: '0' is not an integer in [1, 2**53]\n"

    def test_counts_needs_exactly_one_mean(self):
        code, _, err = run_cli("counts")
        assert code == 1
        assert "exactly one of --mbar or --sbar" in err
        code, _, err = run_cli("counts", "--mbar", "1", "--sbar", "1")
        assert code == 1

    def test_unknown_command_exits_one(self):
        code, *_ = run_cli("bogus")
        assert code == 1

    def test_missing_command_exits_one(self):
        code, *_ = run_cli()
        assert code == 1

    @pytest.mark.parametrize(
        "argv, want",
        [
            (("spread", "--distance", "inf"), "distance: 'inf' is not a number in (0, inf)"),
            (("cavity", "--temperature", "inf"),
             "temperature: 'inf' is not a number in (0, inf)"),
            (("cavity", "--temperature", "nan"),
             "temperature: 'nan' is not a number in (0, inf)"),
            (("cavity", "--mu=-inf"), "mu: '-inf' is not a number in (-inf, inf)"),
            (("chsh", "--angles-deg", "0,45,nan,-45"),
             "angles-deg: '0,45,nan,-45' is not a list of 4 numbers in (-inf, inf)"),
        ],
        ids=["distance", "temperature-inf", "temperature-nan", "mu", "angles"],
    )
    def test_non_finite_value_exits_one(self, argv, want):
        # Infinity and NaN are not strict JSON, and no experiment has a
        # meaningful answer at them; no domain holds them
        assert run_cli(*argv) == (1, "", f"error: parameter {want}\n")

    def test_non_finite_integer_in_config_exits_one(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"bins": Infinity}')
        code, _, err = run_cli("cavity", "--config", str(path))
        assert code == 1
        assert err == "error: parameter bins: inf is not an integer in [1, 2**53]\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("spread", "--distance", "1e308", "--kinetic-mev", "1e-300"),
        ],
    )
    def test_non_finite_result_exits_two(self, argv, tmp_path):
        # finite inputs whose results overflow; the record would carry
        # Infinity or NaN, which are not strict JSON
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not finite" in err
        path = tmp_path / "rec.json"
        code, out, _ = run_cli(*argv, "--out", str(path))
        assert code == 2
        assert out == "" and not path.exists()

    @pytest.mark.parametrize(
        "argv, want",
        [
            (("counts", "--stat", "boltzmann", "--g", "1" + "0" * 320, "--sbar", "0.5"), 1),
            (("counts", "--stat", "bose", "--g", "1" + "0" * 320, "--sbar", "0.5"), 1),
            (("counts", "--stat", "fermi", "--g", "1" + "0" * 320, "--sbar", "0.5"), 1),
            (("counts", "--stat", "bose", "--g", "1" + "0" * 320, "--mbar", "0.5"), 1),
            (("counts", "--stat", "fermi", "--g", str(2**53 + 1), "--sbar", "0.5"), 1),
            # a 10**8 + 1 point binomial support, over the cap
            (("counts", "--stat", "fermi", "--g", "100000000", "--sbar", "0.5"), 2),
        ],
        ids=["boltzmann", "bose", "fermi", "bose-mbar", "fermi-2**53+1", "fermi-1e8"],
    )
    def test_oversized_packet_count_is_one_error_line(self, argv, want):
        code, out, err = run_cli(*argv)
        assert code == want
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_arithmetic_fault_writes_no_file(self, tmp_path):
        path = tmp_path / "rec.json"
        code, out, err = run_cli("balance", "--frequencies", "1e300", "--out", str(path))
        assert (code, out) == (2, "")
        assert err == "error: arithmetic failure: Numerical result out of range\n"
        assert not path.exists()

    def test_width_ratio_cap_precedes_the_audit_grids(self):
        # ratio 1e6 would need grids of 33,941,127 points, gigabytes in all;
        # under a 1 GiB address-space limit a regression fails here instead
        # of exhausting the machine's memory
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        # the package's own one-thread BLAS default keeps the child under it
        done = subprocess.run(
            [sys.executable, "-m", "packetlab.cli", "actionprob", "--width-ratio", "1e6"],
            capture_output=True, text=True, timeout=120, env=_child_env(), preexec_fn=limit,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: parameter width-ratio: '1e6' is not a number in [2, 10000]\n"

    def test_support_over_the_cap_exits_two(self):
        code, out, err = run_cli("counts", "--mbar", "1e12")
        assert code == 2
        assert out == ""
        assert err == "error: count support exceeds the bookkeeping cap\n"

    def test_condspace_grid_cap_precedes_the_product_tensor(self):
        # the 10^12-entry tensor of this grid would need 14.6 TiB
        code, out, err = run_cli("condspace", "--grid=-8,8,1000000")
        assert (code, out, err) == (1, "", "error: grid capped at 256 points\n")

    @pytest.mark.parametrize("message, want", [
        ("Unable to allocate 745. GiB for an array with shape (100000000001,) "
         "and data type float64",
         "error: Unable to allocate 745. GiB for an array with shape "
         "(100000000001,) and data type float64\n"),
        ("", "error: out of memory\n"),
    ])
    def test_refused_allocation_exits_two(self, monkeypatch, tmp_path, message, want):
        # as numpy refuses `cavity --bins 100000000000`; nothing is allocated here
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli.quantstat, "photon_bins", refuse)
        path = tmp_path / "rec.json"
        code, out, err = run_cli("cavity", "--out", str(path))
        assert (code, out, err) == (2, "", want)
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("condspace", "--grid=-8,8,1e300"),
            ("coherence", "--points", "10000000000000000000"),
            ("cavity", "--bins", "5000000000000000000"),
            ("lhv", "--settings", "5000000000000000000"),
            ("nosignal", "--max-dim", "9007199254740992", "--trials", "1"),
            ("condspace", "--grid=-8,8,1e12"),
            ("nosignal", "--max-dim", "3000000000"),
        ],
    )
    def test_size_cap_precedes_the_allocation(self, argv):
        # numpy used to refuse these arrays: with a traceback past its own
        # size limit, with "Unable to allocate" and exit 2 below it
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_help_exits_zero(self):
        for argv in (("--help",), ("-h",), ("counts", "--help"), ("packet", "spread", "-h")):
            code, out, err = run_cli(*argv)
            assert (code, err) == (0, "") and out.startswith("usage: packetlab ")


class TestNegativeValues:
    # a flag's value is the next token even when it starts with '-', as a
    # negative list or exponent does
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (("bell", "--angles-deg", "-45,0"), "angles-deg", [-45.0, 0.0]),
            (("cavity", "--mu", "-1e-21", "--bins", "8"), "mu", -1e-21),
            (("bell", "--a", "-1,0,0", "--b", "0,0,1"), "a", [-1.0, 0.0, 0.0]),
        ],
        ids=["angles", "mu", "vector"],
    )
    def test_space_separated_form_reads_the_value(self, argv, flag, value):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["params"][flag] == value
        joined = [argv[0], f"{argv[1]}={argv[2]}", *argv[3:]]
        assert run_cli(*joined)[1] == out

    def test_a_negative_value_still_meets_its_converter(self):
        code, out, err = run_cli("cavity", "--bins", "-3")
        assert (code, out) == (1, "")
        assert err == "error: parameter bins: '-3' is not an integer in [1, 2**53]\n"


# (command key, flag, converter, default) of every flag the registry holds
_FLAGS = [
    (key, name, conv, default)
    for key, command in cli._COMMANDS.items()
    for name, conv, default, _help in command.flags
]
# the flags with a value that their converter can refuse
_REFUSABLE = [case for case in _FLAGS if case[2] not in (cli._boolean, cli._text)]


def _flag_id(case):
    return f"{case[0]} --{case[1]}"


def _accepted_text(conv, name, default) -> str:
    """Text for the flag that its converter accepts."""
    if default is not None:
        return ",".join(map(str, default)) if isinstance(default, list) else str(default)
    for text in ("2", "1,2", "1,2,3", "1,2,3,4"):
        try:
            conv(text, name)
            return text
        except DomainError:
            pass
    raise AssertionError(f"no candidate text for --{name}")


_DBL_MAX = sys.float_info.max
# the float values every real flag meets beside its own bounds
_FLOAT_EXTREMES = (5e-324, 1e-300, 1e300, _DBL_MAX, -1e300)


def _edges(number) -> list:
    """An integer flag's lo and the integers just outside its bounds, never a
    large size inside them; a real flag's finite bounds, the float just
    outside each, and the extremes."""
    if number.kind == "integer":
        return [number.lo, number.lo - 1, number.hi + 1]
    values = set(_FLOAT_EXTREMES)
    for bound, outward in ((number.lo, -math.inf), (number.hi, math.inf)):
        if math.isfinite(bound):
            values |= {bound, math.nextafter(bound, outward)}
    return sorted(values)


def _inside(number, value) -> bool:
    above = number.lo < value if number.ends[0] == "(" else number.lo <= value
    below = value < number.hi if number.ends[1] == ")" else value <= number.hi
    return above and below


def _beside(key, name) -> list:
    """The flags a run of --name needs beside it: a mean for counts, an
    expansion and a window for reduce, and a direction vector's partners."""
    given = {}
    if key == "counts" and name not in ("mbar", "sbar"):
        given = {"mbar": "1"}
    elif key == "reduce":
        given = {"coeffs": "0.6,0.8", "window": "0"}
    elif name in _VECTOR_KEYS.get(key, ()):
        given = dict.fromkeys(_VECTOR_KEYS[key], "0,0,1")
    return [word for flag, text in given.items() if flag != name
            for word in (f"--{flag}", text)]


# in-domain edges that do not yet exit 0 cleanly, per (command, flag): the
# values, and the defect with the ROADMAP item or the cross-flag check that
# owns it. A cross-flag check refuses a value that the flag's own domain
# holds, because of another flag's value
_TINY, _HUGE = (5e-324, 1e-300), (1e300, _DBL_MAX)
_ACCUM_PRODUCT = "the cross-flag check of flux * area, which underflows to 0"
_PLANCK_DENSITY = "the cross-flag check of the Planck density, which underflows to 0"
_VONLAUE_FIELD = "the cross-flag check of the field count A l dnu / (a c), out of range"
_VONLAUE_SPECTRAL = "the cross-flag check of dnu over the packet's spectral width, which overflows"
_EDGE_DEFECTS = {
    ("condspace", "centers"): (
        (-1e300, *_HUGE), "item 3 and a cross-flag check (centers against --grid): numpy "
        "overflows in square, then 'cannot normalize a zero function' names no flag"),
    ("condspace", "sigmas"): (
        _TINY + _HUGE, "item 3: sigma**2 underflows, so the amplitude 0.0 ** -0.25 exits 2, "
        "or the amplitude underflows and 'cannot normalize a zero function' names no flag"),
    ("condspace", "k0"): (
        (_DBL_MAX,), "item 3: k0 x overflows in numpy, and the tensor norm is NaN"),
    ("condspace", "grid"): (
        (-1e300, *_HUGE), "the grid triple, a cross-flag check: it refuses start >= stop "
        "and a squared spacing that overflows"),
    ("condspace", "x2"): (
        (-1e300, *_HUGE), "a cross-flag check (x2 against --grid): the library's "
        "'lies outside the grid' does not say 'parameter x2'"),
    ("packet spread", "mass-kg"): (
        _TINY + _HUGE, "item 20: the spreading closed forms overflow, exit 2"),
    ("packet spread", "kinetic-mev"): (
        (5e-324, *_HUGE), "item 20: MeV to J underflows to 0 (exit 1, no flag named), and "
        "1 - beta**2 cancels to 0, so tau2 is infinite (exit 2)"),
    ("packet spread", "width0"): (
        (5e-324, *_HUGE), "item 20: the spreading closed forms overflow, exit 2"),
    ("packet spread", "full-length"): (
        (5e-324, *_HUGE), "item 20: half of 5e-324 underflows to 0 (exit 1, no flag named), "
        "and the spreading closed forms overflow (exit 2)"),
    ("packet coherence", "sigma"): (
        _TINY + _HUGE, "item 3: sigma**2 underflows (0.0 ** -0.25, exit 2) or overflows "
        "in numpy, exit 2"),
    ("packet coherence", "span-sigmas"): (
        _TINY + _HUGE, "item 3: the spacing underflows or overflows, and the shifts "
        "leave the grid; each exit names no flag"),
    ("packet coherence", "shifts"): (
        (-1e300, *_HUGE), "a cross-flag check (shifts against sigma and span-sigmas): "
        "'extends beyond the sampled grid' does not say 'parameter shifts'"),
    ("packet accum", "threshold-ev"): (
        (5e-324, *_HUGE), "item 20: eV to J underflows to 0 (exit 1, no flag named), or "
        "the time overflows (exit 2)"),
    ("packet accum", "flux"): ((5e-324,), _ACCUM_PRODUCT),
    ("packet accum", "area"): ((5e-324,), _ACCUM_PRODUCT),
    ("packet sterngerlach", "mu-z"): (
        (-1e300, *_HUGE), "item 20: the deflection mu grad-b dt / p-y overflows, exit 2"),
    ("packet sterngerlach", "dt"): (
        (_DBL_MAX,), "item 20: the deflection mu grad-b dt / p-y overflows, exit 2"),
    ("cavity", "temperature"): (
        _TINY + _HUGE, "item 3: k T underflows ('p, dp and epsilon must be positive', no "
        "flag named) or the bins overflow in numpy, exit 2"),
    ("cavity", "volume"): (_HUGE, "item 3: the mode counts overflow in numpy, exit 2"),
    ("cavity", "mu"): (
        _HUGE, "a cross-flag check (mu against the lowest bin): the Bose pole error "
        "names no flag"),
    ("cavity", "x-lo"): (
        _TINY + _HUGE, "item 3: the lowest bin's energy underflows (no flag named), and "
        "the library's x_lo < x_hi cross-flag check names no flag"),
    ("cavity", "x-hi"): (
        _TINY + _HUGE, "the library's x_lo < x_hi cross-flag check names no flag, and "
        "item 3: the bins overflow in numpy, exit 2"),
    ("counts", "mbar"): (_HUGE, "item 4: the law's support outgrows its cap, exit 2"),
    ("counts", "sbar"): (_HUGE, "item 4: the law's support outgrows its cap, exit 2"),
    ("counts", "eta"): (
        (5e-324,), "a missing cross-flag check: s_bar = mbar / (g eta) overflows, and "
        "the support cap exits 2"),
    ("balance", "temperatures"): (_TINY, _PLANCK_DENSITY),
    ("balance", "frequencies"): (
        _TINY + _HUGE, _PLANCK_DENSITY + ", and item 20: nu**3 in A/B overflows, exit 2"),
    ("vonlaue", "area"): (_HUGE, _VONLAUE_FIELD),
    ("vonlaue", "length"): ((5e-324, _DBL_MAX), _VONLAUE_FIELD),
    ("vonlaue", "dnu"): ((5e-324,), _VONLAUE_FIELD),
    ("vonlaue", "focal-area"): ((5e-324, *_HUGE), _VONLAUE_FIELD),
    ("vonlaue", "packet-dy"): (
        (5e-324, _DBL_MAX), "item 20: l / (2 Dy) overflows or the packet's spectral "
        "width underflows to 0, exit 2"),
    ("vonlaue", "packet-dnu"): (_TINY, _VONLAUE_SPECTRAL),
    ("vonlaue", "r"): ((5e-324,), _VONLAUE_SPECTRAL),
}


def _edge_rows():
    for key, name, conv, default in _FLAGS:
        number = getattr(conv, "item", conv)  # a list's items share one domain
        if not hasattr(number, "kind"):  # a choice, a boolean or a text
            continue
        values, reason = _EDGE_DEFECTS.get((key, name), ((), None))
        for value in _edges(number):
            text = repr(value) if isinstance(value, float) else str(value)
            if number is not conv:  # the value leads the default or a list of ones
                rest = default[1:] if default else [1.0] * ((conv.count or 1) - 1)
                text = ",".join([text, *map(str, rest)])
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if value in values else []
            yield pytest.param(key, name, text, _inside(number, value), marks=marks,
                               id=f"{key} --{name}={text}")


_EDGE_ROWS = list(_edge_rows())


class TestArgvParsing:
    @pytest.mark.parametrize("key, name, conv, default", _FLAGS, ids=[*map(_flag_id, _FLAGS)])
    def test_space_and_equals_forms_give_the_same_params(self, key, name, conv, default):
        words = key.split()
        if conv is cli._boolean:
            assert cli._parse_argv([*words, f"--{name}"]) == (key, {name: True})
            with pytest.raises(DomainError, match="takes no value"):
                cli._parse_argv([*words, f"--{name}=false"])
            return
        if default is not None:  # every default lies in its flag's domain
            assert conv(default, name) == default
        text = _accepted_text(conv, name, default)
        spaced = cli._parse_argv([*words, f"--{name}", text])
        joined = cli._parse_argv([*words, f"--{name}={text}"])
        assert spaced == joined == (key, {name: text})
        flags = cli._COMMANDS[key].flags
        params = cli._resolve(flags, {}, spaced[1])
        assert params == cli._resolve(flags, {}, joined[1])
        assert params[name] == conv(text, name)

    @pytest.mark.parametrize(
        "key, name, conv, default", _REFUSABLE, ids=[*map(_flag_id, _REFUSABLE)]
    )
    def test_refused_value_fails_before_the_handler(
        self, monkeypatch, key, name, conv, default
    ):
        def handler(params):
            raise AssertionError("the handler ran")

        command = cli._COMMANDS[key]._replace(handler=handler)
        monkeypatch.setitem(cli._COMMANDS, key, command)
        code, out, err = run_cli(*key.split(), f"--{name}", "nan")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: parameter {name}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("chsh", "--bogus", "1"),
            ("cavity", "--temp", "300"),  # no flag name is abbreviated
            ("counts", "--m", "3"),
            ("chsh", "--model"),
            ("chsh", "extra"),
            ("bogus",),
            ("packet",),
            ("packet", "chsh"),
        ],
    )
    def test_malformed_argv_is_one_error_line(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_any_next_token_is_the_value_and_the_last_repeat_wins(self):
        assert cli._parse_argv(["cavity", "--mu", "--bins", "--mu=-2", "--entropy"]) == (
            "cavity", {"mu": "-2", "entropy": True}
        )
        assert cli._parse_argv(["packet", "accum", "--out", "-h"]) == (
            "packet accum", {"out": "-h"}
        )

    @pytest.mark.parametrize("key", list(cli._COMMANDS))
    def test_help_page_lists_each_flag_with_its_default(self, key, capsys):
        code, page, err = run_cli(*key.split(), "--help")
        assert (code, err) == (0, "")
        assert capsys.readouterr().out == ""  # all of it went to run's stdout
        lines = page.splitlines()
        for name, conv, default, text in cli._COMMANDS[key].flags:
            [line] = [ln for ln in lines if ln.split()[:1] == [f"--{name}"]]
            assert text in line
            if default is None or conv is cli._boolean:
                assert "(default:" not in line
            else:
                assert line.endswith(f"(default: {_accepted_text(conv, name, default)})")
        if key.startswith("packet "):
            assert run_cli(key.split()[1], "-h") == (0, page, "")


class TestDomainEdges:
    # every numeric flag of the registry at the edges of its declared domain,
    # alone beside its command's defaults
    @pytest.mark.parametrize("key, name, text, inside", _EDGE_ROWS)
    def test_flag_at_its_edges(self, key, name, text, inside):
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            code, out, err = run_cli(*key.split(), f"--{name}={text}", *_beside(key, name))
        if inside:
            assert code == 0 and "encountered in" not in err, err
            _strict_json(out)
        else:
            assert (code, out) == (1, "")
            assert err.startswith(f"error: parameter {name}: ") and err.count("\n") == 1


class TestWarnings:
    def test_library_warning_is_one_stderr_line(self):
        argv = ("cavity", "--temperature", "5800", "--entropy")
        done = fresh_process("-m", "packetlab.cli", *argv)
        assert done.stderr == STIRLING_WARNING
        assert done.stdout == run_cli(*argv)[1]

    def test_regress_reports_the_stirling_warning(self):
        # its 200-bin entropy check holds classes of a few cells near x = 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("default", AccuracyWarning)
            code, _, err = run_cli("regress")
        assert code == 0
        assert err == STIRLING_WARNING

    def test_boltzmann_count_past_e_quanta_per_cell_warns(self):
        argv = ("cavity", "--statistics", "boltzmann", "--mu=1e-18", "--bins", "20",
                "--entropy")
        with warnings.catch_warnings():
            warnings.simplefilter("default", AccuracyWarning)
            code, out, err = run_cli(*argv)
            assert run_cli("cavity", "--statistics", "boltzmann", "--entropy")[2] == ""
        assert code == 0
        assert err == (
            "warning: some bins hold more than e quanta per cell; the classical "
            "count ln(g^N/N!) is negative there\n"
        )
        assert json.loads(out)["entropy"] < 0.0
        # the warning leaves stdout as it was
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            assert run_cli(*argv) == (0, out, "")

    def test_reduce_refuses_before_it_renormalizes(self):
        # the mode check comes first, so no notice about work never done
        with warnings.catch_warnings():
            warnings.simplefilter("default", AccuracyWarning)
            got = run_cli("reduce", "--coeffs", "3,4")
        assert got == (1, "", "error: window mode needs --window\n")

    def test_no_warning_without_sparse_classes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("default", AccuracyWarning)
            code, _, err = run_cli("cavity", "--x-lo", "0.5", "--entropy")
        assert (code, err) == (0, "")


class TestCommandRegistry:
    def test_one_entry_per_command_in_help_order(self):
        assert list(cli._COMMANDS) == [
            "bell", "chsh", "sample", "lhv", "nosignal", "reduce", "condspace",
            "actionprob", "packet spread", "packet coherence", "packet accum",
            "packet sterngerlach", "cavity", "counts", "balance", "vonlaue", "regress",
        ]

    def test_help_lists_every_command(self):
        code, listing, _ = run_cli("--help")
        assert code == 0
        for key, command in cli._COMMANDS.items():
            assert f"  {key} " in listing and command.help in listing


class TestPacketAliases:
    def test_spread_alias_is_byte_identical(self):
        _, prefixed, _ = run_cli("packet", "spread")
        _, bare, _ = run_cli("spread")
        assert bare == prefixed
        assert json.loads(bare)["command"] == "packet spread"

    def test_accum_alias_is_byte_identical(self):
        _, prefixed, _ = run_cli("packet", "accum")
        _, bare, _ = run_cli("accum")
        assert bare == prefixed

    def test_remaining_aliases_run(self):
        assert run_cli("coherence")[0] == 0
        assert run_cli("sterngerlach")[0] == 0


class TestCommandValues:
    def test_spread_benchmark_defaults(self):
        rec = record("packet", "spread", "--full-length", "4e-15")
        assert rec["direction"] == "longitudinal"
        assert rec["final_width"] == pytest.approx(0.023, rel=0.1)
        assert rec["final_full_length"] == 2.0 * rec["final_width"]

    def test_accum_benchmark_defaults(self):
        rec = record("packet", "accum")
        assert rec["t_accumulate_s"] == pytest.approx(997927160605.7142, rel=1e-12)

    def test_vonlaue_default_ratio(self):
        rec = record("vonlaue")
        assert rec["packet_product_over_field_dof"] == pytest.approx(1.0, rel=1e-10)

    def test_counts_variance_fields_agree(self):
        rec = record("counts", "--stat", "bose", "--g", "3", "--mbar", "1.5")
        assert rec["variance"] == pytest.approx(
            rec["distribution_variance"], rel=1e-9
        )
        assert rec["m_bar"] == pytest.approx(1.5, rel=1e-12)

    def test_counts_monte_carlo_variance(self):
        rec = record(
            "counts", "--stat", "bose", "--g", "3", "--mbar", "1.0",
            "--mc", "200000",
        )
        assert abs(rec["mc_variance"] - rec["variance"]) < rec["variance_three_sigma"]

    def test_cavity_stefan_boltzmann(self):
        rec = record("cavity", "--bins", "400")
        assert rec["stefan_boltzmann_ratio"] == pytest.approx(1.0, abs=5e-3)

    def test_cavity_entropy_flag(self):
        # the regress row's bound, derived beside it in cli.py
        rec = record("cavity", "--temperature", "1000", "--entropy")
        assert rec["ds_de_times_t"] == pytest.approx(1.0, abs=1e-13)

    def test_boltzmann_entropy_at_large_means(self):
        # cells with means up to 2.6e5 at mu = 1e-18 J; the classical-gas
        # entropy keeps T dS/dE = 1 and T dS/dN = -mu there, as at mu = 0,
        # to the rounding bound of test_quantstat's equilibrium identities
        for mu in ("0", "1e-18"):
            rec = record(
                "cavity", "--statistics", "boltzmann", f"--mu={mu}", "--bins", "20",
                "--entropy",
            )
            assert rec["ds_de_times_t"] == pytest.approx(1.0, abs=1e-13)
            assert rec["ds_dn"] * rec["temperature"] == pytest.approx(
                -float(mu), abs=1e-13 * K_BOLTZMANN * rec["temperature"]
            )

    def test_entropy_next_to_the_bose_pole(self):
        rec = record("cavity", "--x-lo", "1e-7", "--entropy")
        assert rec["ds_de_times_t"] == pytest.approx(1.0, abs=1e-13)

    def test_entropy_far_above_mu(self):
        # the complex step's Im parts, 1e-20 exp(-y), stay normal floats at
        # y = 260, where a step of 1e-200 would leave them subnormal
        rec = record("cavity", "--x-lo", "260", "--x-hi", "400", "--entropy")
        assert rec["ds_de_times_t"] == pytest.approx(1.0, abs=1e-13)

    def test_lhv_semiclassical_family(self):
        rec = record("lhv", "--family", "semiclassical", "--settings", "200")
        assert rec["canonical_K"] == pytest.approx(SC_K, rel=1e-9)
        assert rec["max_K"] <= rec["bound"] + 1e-9
        assert rec["satisfied"] is True

    @pytest.mark.parametrize("flag", ["--models", "--n-lambda"])
    def test_lhv_semiclassical_rejects_model_draw_flags(self, flag, tmp_path):
        # the family is one fixed model; a flag it ignores must not be echoed
        want = f"error: parameter {flag[2:]}: not used by the semiclassical family\n"
        assert run_cli("lhv", "--family", "semiclassical", flag, "3") == (1, "", want)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "semiclassical", flag[2:]: 3}))
        assert run_cli("lhv", "--config", str(path)) == (1, "", want)

    def test_lhv_draw_flag_defaults_are_echoed(self):
        rec = record("lhv", "--family", "random", "--models", "2", "--settings", "2")
        assert (rec["params"]["models"], rec["params"]["n-lambda"]) == (2, 16)
        rec = record("lhv", "--family", "semiclassical", "--settings", "2")
        assert (rec["params"]["models"], rec["params"]["n-lambda"]) == (None, None)
        assert rec["models"] == 1

    def test_lhv_sign_family_hits_classical_bound(self):
        rec = record(
            "lhv", "--family", "sign", "--models", "5", "--settings", "50"
        )
        assert rec["bound"] == 2.0
        assert rec["max_K"] <= 2.0 + 1e-9
        assert rec["satisfied"] is True

    def test_lhv_settings_lie_at_their_documented_offsets(self, monkeypatch):
        # stream 0 holds a, b, a', b' as whole arrays of n rows, then the
        # models; the handler draws each block of rows where it lies
        n, seed = 2 * numkit.MC_BLOCK + 3, 5
        blocks, real = [], spincorr.lhv_chsh_audit

        def audit(model, *axes):
            blocks.append(axes)
            return real(model, *axes)

        monkeypatch.setattr(cli.spincorr, "lhv_chsh_audit", audit)
        rec = record("lhv", "--family", "random", "--models", "2", "--settings", str(n),
                     "--seed", str(seed))
        monkeypatch.undo()
        rng = numkit.RandomStream(seed, 0)
        axes = [numkit.sample_isotropic_directions(rng, n) for _ in range(4)]
        models = [spincorr.random_lhv_model(rng, 16) for _ in range(2)]
        assert len(blocks) == 3 * 2
        for k in range(4):  # each model is audited on every row of every array
            for i in range(2):
                assert np.array_equal(np.concatenate([b[k] for b in blocks[i::2]]), axes[k])
        assert rec["max_K"] == max(float(np.max(spincorr.lhv_chsh_audit(m, *axes)[0]))
                                   for m in models)

    def test_lhv_memory_does_not_grow_with_settings(self):
        # drawn whole, the four settings arrays took 96 B per setting, 38 MB
        # more at 8 blocks than at 2. A first untraced run keeps first-use
        # allocations out of both peaks.
        argv = ("lhv", "--family", "semiclassical", "--settings")
        assert run_cli(*argv, "3")[0] == 0

        def traced_peak(n):
            tracemalloc.start()
            try:
                assert run_cli(*argv, str(n))[0] == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = traced_peak(2 * numkit.MC_BLOCK)
        assert traced_peak(8 * numkit.MC_BLOCK) - small < 2**20

    def test_actionprob_at_the_cap_in_bounded_memory(self):
        # README: "`actionprob --width-ratio` is capped at 1e4, whose grids of
        # 339,413 points take about 0.2 s and peak near 40 MB with
        # `--finals 16`". Built on the full grid, its 18 packets alone took
        # 98 MB, and the run 149 MB; with complex samples it peaked at 42 MB
        code, out, peak_mb = own_peak_run(
            "actionprob", "--width-ratio", "1e4", "--finals", "16"
        )
        assert code == 0
        assert json.loads(out)["finals"] == 16
        assert peak_mb < 48.0

    def test_nosignal_small_run(self):
        rec = record("nosignal", "--trials", "20", "--max-dim", "5")
        assert rec["max_deviation"] < 1e-10

    @pytest.mark.parametrize("flag", ["--trials", "--broken-trials"])
    def test_balance_memory_does_not_grow_with_trials(self, flag):
        # each parameter set is reduced as it is drawn; a list of them
        # grows by about 0.8 kB per draw, 1.4 MB over the extra 1,800 here.
        # A first untraced run keeps first-use allocations out of both peaks.
        assert run_cli("balance", flag, "1")[0] == 0

        def traced_peak(n):
            tracemalloc.start()
            try:
                assert run_cli("balance", flag, str(n))[0] == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = traced_peak(200)
        assert traced_peak(2000) - small < 64 * 1024

    def test_balance_small_energy_step_seed(self):
        # one of this seed's sets moves 8.4e-5 of energy between levels near
        # 1.84; the bookkeeping guard used to reject it
        rec = record("balance", "--seed", "14279167644398334059")
        assert rec["max_residual"] < 1e-12


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite token {token}")

    return json.loads(text, parse_constant=reject)


class TestCavityFuzz:
    @settings(max_examples=80, deadline=None)
    @given(
        statistics=st.sampled_from(["bose", "fermi", "boltzmann"]),
        entropy=st.booleans(),
        mu_over_kt=st.floats(min_value=-30.0, max_value=10.0),
        bins=st.integers(min_value=1, max_value=200),
        x_lo=st.floats(allow_nan=False, allow_infinity=False),
        x_hi=st.floats(allow_nan=False, allow_infinity=False),
        csv=st.booleans(),
    )
    def test_exit_code_and_output_contract(
        self, statistics, entropy, mu_over_kt, bins, x_lo, x_hi, csv
    ):
        mu = mu_over_kt * K_BOLTZMANN * 5800.0
        argv = ["cavity", "--statistics", statistics, f"--mu={mu!r}",
                "--bins", str(bins), "--x-lo", repr(x_lo), "--x-hi", repr(x_hi)]
        argv += ["--entropy"] * entropy + ["--format", "csv"] * csv
        code, out, err = run_cli(*argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        lines = err.splitlines()
        if code == 0:
            assert all(line.startswith("warning: ") for line in lines)
            if csv:
                header, *rows = out.splitlines()
                assert header == "nu,x,g,count,energy_density" and len(rows) == bins
                assert all(math.isfinite(float(c)) for r in rows for c in r.split(","))
            else:
                assert _strict_json(out)["bins"] == bins
        else:
            assert out == ""
            assert [line.startswith("error: ") for line in lines].count(True) == 1
            assert lines[-1].startswith("error: ")
            assert all(line.startswith("warning: ") for line in lines[:-1])


# vector components: zero, the smallest subnormal, every 20th decade of the
# float range, and ordinary values
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]
                    + [sign * 10.0**e for e in range(-300, 301, 20) for sign in (1, -1)]),
    st.floats(min_value=-10.0, max_value=10.0),
)
_VECTOR_KEYS = {"bell": ("a", "b"), "sample": ("a", "b"), "chsh": ("a", "b", "a2", "b2")}


def _run_strict(*argv):
    # a numpy floating-point warning fails the run; the CLI's own notices show
    with warnings.catch_warnings():
        warnings.simplefilter("default", AccuracyWarning)
        warnings.simplefilter("error", RuntimeWarning)
        return run_cli(*argv)


def _assert_stderr_shape(err):
    lines = err.splitlines()
    assert all(line.startswith("warning: ") for line in lines[:-1])
    assert not lines or lines[-1].startswith(("warning: ", "error: "))


class TestVectorFlagsFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(sorted(_VECTOR_KEYS)),
        vectors=st.lists(st.lists(_COMPONENTS, min_size=3, max_size=3),
                         min_size=4, max_size=4),
        n=st.integers(min_value=1, max_value=1000),
    )
    def test_any_nonzero_vector_has_a_direction(self, command, vectors, n):
        keys = _VECTOR_KEYS[command]
        argv = [command] + [f"--{k}={','.join(map(repr, v))}" for k, v in zip(keys, vectors)]
        argv += ["--n", str(n)] * (command == "sample")
        code, out, err = _run_strict(*argv)
        _assert_stderr_shape(err)
        zero = next((k for k, v in zip(keys, vectors) if not any(v)), None)
        if zero is not None:
            assert (code, out) == (1, "")
            assert err.splitlines()[-1] == (
                f"error: parameter {zero}: zero vector cannot define a direction"
            )
            return
        assert code == 0, err
        rec = json.loads(out)
        if command == "sample":
            assert rec["n_pp"] + rec["n_pm"] + rec["n_mp"] + rec["n_mm"] == n
            bell = json.loads(_run_strict("bell", *argv[1:3])[1])
            assert rec["expectation_closed_form"] == pytest.approx(
                bell["expectation"], abs=1e-12
            )
            return
        directions = rec["settings"] if command == "chsh" else [rec["a"], rec["b"]]
        for d in directions:
            assert abs(math.fsum(x * x for x in d) - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.lists(_COMPONENTS, min_size=1, max_size=6), pick=st.booleans())
    def test_any_nonzero_expansion_is_renormalized(self, coeffs, pick):
        window = ",".join(map(str, range(len(coeffs))))  # keeps all the mass
        mode = ["--mode", "pick"] if pick else ["--window", window]
        code, out, err = _run_strict(
            "reduce", f"--coeffs={','.join(map(repr, coeffs))}", *mode
        )
        _assert_stderr_shape(err)
        if not any(coeffs):
            assert (code, out) == (1, "")
            assert err == "error: parameter coeffs: all coefficients are zero\n"
            return
        assert code == 0, err
        rec = json.loads(out)
        assert abs(math.fsum(rec["input_probabilities"]) - 1.0) <= 1e-12
        assert abs(math.fsum(rec["output_probabilities"]) - 1.0) <= 1e-12


class TestFloatRangeEdges:
    # inputs at the edges of the float range that used to be refused, or to
    # print numpy's internal overflow warning

    @pytest.mark.parametrize("argv, notice, direction", [
        (("reduce", "--coeffs", "1e300,1e300", "--mode", "pick"),
         "coefficients renormalized from |c| = 1.4142136e+300", None),
        (("chsh", "--a", "1e300,1e300,0", "--b", "0,0,1", "--a2", "1,0,0",
          "--b2", "0,1,0"),
         "direction a renormalized from |v| = 1.4142136e+300", [0.5**0.5, 0.5**0.5, 0.0]),
        (("bell", "--a", "1e-200,0,1e-200", "--b", "0,0,1"),
         "direction a renormalized from |v| = 1.4142136e-200", [0.5**0.5, 0.0, 0.5**0.5]),
    ])
    def test_huge_and_tiny_vectors_keep_their_direction(self, argv, notice, direction):
        code, out, err = _run_strict(*argv)
        assert (code, err) == (0, f"warning: {notice}\n")
        rec = json.loads(out)
        if direction is not None:
            got = rec["settings"][0] if argv[0] == "chsh" else rec["a"]
            assert got == pytest.approx(direction, abs=1e-15)
        else:
            assert rec["input_probabilities"] == pytest.approx([0.5, 0.5], abs=1e-15)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("argv", [
        # 1/sb overflows; the n = 0 log-weight used to take 0 * inf
        ("counts", "--stat", "bose", "--g", "1", "--sbar", "1e-320"),
        # h nu / k T underflows to 0, where the occupancy is Rayleigh-Jeans
        ("balance", "--temperatures", "1e308", "--frequencies", "1e-10"),
    ])
    def test_valid_input_at_the_float_limits_exits_0(self, argv, strict):
        code, out, err = (_run_strict if strict else run_cli)(*argv)
        assert (code, err) == (0, "")
        assert _strict_json(out)["command"] == argv[0]

    def test_subnormal_grid_is_refused_by_the_norm_guard(self):
        # spacing**2 underflows, which made the pair's norm inf * 0 = NaN
        # after a raw numpy overflow warning; the grid is refused before any
        # sample is taken, by the flag that set it
        code, out, err = run_cli("condspace", "--grid", "0,1e-320,161", "--x2", "0")
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert not any(line.startswith("warning:") for line in err.splitlines())
        assert err == "error: parameter grid: the squared spacing underflows double precision\n"

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("argv, error", [
        (("coherence", "--sigma", "1e300"), "overflow encountered in square"),
        (("cavity", "--temperature", "1e300"), "invalid value encountered in subtract"),
    ])
    def test_float_fault_is_one_error_line_under_either_filter(self, argv, error, strict):
        # with numpy's warnings raised as errors, as CI runs the README, the
        # warning itself used to escape run() as a traceback
        code, out, err = (_run_strict if strict else run_cli)(*argv)
        assert (code, out) == (2, "")
        _assert_stderr_shape(err)
        assert "Traceback" not in err
        lines = err.splitlines()
        assert sum(line.startswith("error:") for line in lines) == 1
        if strict:
            assert lines == [f"error: {error}"]

    @pytest.mark.parametrize("statistics", ["bose", "fermi", "boltzmann"])
    def test_counts_at_an_underflowing_thinned_mean_is_bad_input(self, statistics):
        code, out, err = _run_strict("counts", "--stat", statistics, "--g", "3",
                                     "--sbar", "1e-200", "--eta", "1e-200")
        assert (code, out, err) == (1, "", "error: eta * s_bar underflows to 0\n")

    @pytest.mark.parametrize("entropy", [False, True])
    @pytest.mark.parametrize("statistics, mu, code, error", [
        ("bose", "1e300", 1,
         "error: Bose pole in bin 0: epsilon <= mu makes the occupancy diverge"),
        ("bose", "-1e300", 0, None),
        ("fermi", "1e300", 0, None),
        ("fermi", "-1e300", 0, None),
        ("boltzmann", "1e300", 2, "error: Boltzmann weight overflows double precision"),
        ("boltzmann", "-1e300", 0, None),
    ])
    def test_cavity_at_extreme_mu_warns_only_as_packetlab(
        self, statistics, mu, code, error, entropy
    ):
        argv = ["cavity", "--statistics", statistics, f"--mu={mu}"] + ["--entropy"] * entropy
        if entropy and code == 0:
            # every bin is empty or full, so (T, mu) cannot be told apart
            code, error = 2, ("error: degenerate (T, mu) response; "
                              "cannot separate dS/dE from dS/dN")
        got, out, err = _run_strict(*argv)
        assert got == code
        assert "encountered" not in err
        _assert_stderr_shape(err)
        if error is None:
            assert err == "" and _strict_json(out)["statistics"] == statistics
        else:
            assert out == "" and err.splitlines()[-1] == error


class TestRegress:
    def test_green_and_deterministic(self):
        _, first, _ = run_cli("regress")
        _, second, _ = run_cli("regress")
        assert first == second
        rec = json.loads(first)
        assert rec["all_ok"] is True
        assert rec["failures"] == 0
        assert rec["total"] == len(rec["checks"])
        rows = [(c["name"], c["expected"], c["tol"], c["mode"]) for c in rec["checks"]]
        assert rows == REGRESS_TABLE

    def test_check_table_is_pinned(self):
        # a dropped, reordered or edited row changes what regress certifies
        assert [row[:4] for row in cli._REGRESSION_CHECKS] == REGRESS_TABLE

    def test_thirty_two_checks_read_a_subcommand_record(self):
        invoked = [row[4] for row in cli._REGRESSION_CHECKS if row[4] is not None]
        assert len(invoked) == 32
        assert all(key in cli._COMMANDS and key != "regress" for key, _ in invoked)
        assert [row[0] for row in cli._REGRESSION_CHECKS if row[4] is None] == [
            "marginal_half", "triplet_m0_expectation", "triplet_m1_expectation",
            "heisenberg_gaussian_product", "photon_mode_count", "balance_intact_fixed",
            "balance_broken_fixed", "counts_binomial_fold",
        ]

    @pytest.mark.parametrize("name, argv, value", [
        ("chsh_qm_mc", ("chsh", "--mc", "200000"), lambda rec: rec["K_mc"]),
        ("stefan_boltzmann_ratio", ("cavity", "--temperature", "1000", "--bins", "500"),
         lambda rec: rec["stefan_boltzmann_ratio"]),
        ("counts_fermi_g1_w0", ("counts", "--stat", "fermi", "--g", "1", "--sbar", "0.3"),
         lambda rec: rec["w"][0]),
        ("actionprob_spread", ("actionprob", "--finals", "16"),
         lambda rec: rec["max_relative_spread"]),
    ])
    def test_value_is_the_subcommand_field(self, name, argv, value):
        checks = record("regress", "--seed", "3")["checks"]
        assert {c["name"]: c["value"] for c in checks}[name] == value(
            record(*argv, "--seed", "3")
        )

    def test_seed_choice_stays_green(self):
        rec = record("regress", "--seed", "1")
        assert rec["all_ok"] is True

    def test_shards_do_not_change_checks(self):
        base = record("regress")
        sharded = record("regress", "--shards", "4")
        assert sharded["checks"] == base["checks"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

TASKS = "len(os.listdir('/proc/self/task'))"


def _unpinned_env(**extra) -> dict:
    """_child_env() without the BLAS thread variables, plus extra."""
    env = {k: v for k, v in _child_env().items() if k not in BLAS_THREAD_VARS}
    return dict(env, **extra)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
class TestBlasThreads:
    # numpy's OpenBLAS starts one worker per extra core, which busy-waits;
    # packetlab loads it with one thread unless the caller chose a count,
    # and leaves the environment as it was

    # packetlab loads numpy on first use, so each case loads it through a run
    FIRST_LOAD = "from packetlab.cli import run; run({argv!r}, io.StringIO())\n"

    def test_import_loads_one_thread_and_leaves_no_variable(self):
        out = fresh_python(
            "import io, os\n" + self.FIRST_LOAD.format(argv=["sample", "--n", "1000"])
            + f"print({TASKS}, 'OPENBLAS_NUM_THREADS' in os.environ)",
            _unpinned_env(),
        )
        assert out.split() == ["1", "False"]

    def test_a_first_load_in_a_sharded_run_loads_one_thread(self):
        # numpy loads on the calling thread before the workers start, since
        # its lazy load is not thread-safe. A joined worker's task outlives
        # the join for a moment, so the count is read once the workers are
        # gone; OpenBLAS's own threads would stay
        out = fresh_python(
            "import io, os, time\n"
            + self.FIRST_LOAD.format(argv=["sample", "--n", "200000", "--shards", "2"])
            + f"deadline = time.monotonic() + 5\nwhile {TASKS} > 1 and time.monotonic() < deadline:\n"
            "    time.sleep(0.01)\n"
            f"print({TASKS}, 'OPENBLAS_NUM_THREADS' in os.environ)",
            _unpinned_env(),
        )
        assert out.split() == ["1", "False"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores")
    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_a_caller_count_is_kept(self, var):
        out = fresh_python(
            "import io, os; before = dict(os.environ)\n"
            + self.FIRST_LOAD.format(argv=["sample", "--n", "1000"])
            + f"print({TASKS}, dict(os.environ) == before, "
            "[v for v in os.environ if v.endswith('_NUM_THREADS')])",
            _unpinned_env(**{var: "2"}),
        )
        assert out == f"2 True ['{var}']\n"

    def test_numpy_imported_first_leaves_the_environment_unchanged(self):
        out = fresh_python(
            f"import os, numpy; before, tasks = dict(os.environ), {TASKS}\n"
            f"import packetlab; print(dict(os.environ) == before, {TASKS} == tasks)",
            _unpinned_env(),
        )
        assert out == "True True\n"

    def test_records_do_not_depend_on_the_thread_count(self):
        # this product state's second singular value is an SVD's last bits,
        # which the Schmidt residual drops
        default, pinned = (
            fresh_process("-m", "packetlab.cli", "condspace", "--symmetry", "none", env=env).stdout
            for env in (_unpinned_env(), _unpinned_env(OPENBLAS_NUM_THREADS="1"))
        )
        assert default == pinned


class TestImportOrder:
    # numpy imported before packetlab loads OpenBLAS with a thread per
    # core; the Schmidt residual drops the SVD's rounding noise, so no
    # record depends on the thread count that the import order picked
    ARGVS = [["condspace", "--symmetry", symmetry, *extra]
             for symmetry in ("none", "bose", "fermi")
             for extra in ([], ["--grid", "-8,8,256"], ["--k0", "0.5,-0.3"])] + [["regress"]]
    CODE = (
        "{first}import hashlib, io\n"
        "from packetlab.cli import run\n"
        "for argv in {argvs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    code = run(argv, stdout=out, stderr=err)\n"
        "    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(), repr(err.getvalue()))\n"
    )

    def test_numpy_imported_first_gives_the_same_bytes(self):
        numpy_first, packetlab_first = (
            fresh_python(self.CODE.format(first=first, argvs=self.ARGVS), _unpinned_env())
            for first in ("import numpy\n", "")
        )
        assert len(numpy_first.splitlines()) == len(self.ARGVS)
        assert numpy_first == packetlab_first


# numpy's modules that have run; until packetlab's first use of numpy,
# sys.modules holds numpy as a module that has not loaded (a LazyLoader's)
NUMPY_LOADED = (
    "import sys, types; print([m for m, mod in list(sys.modules.items())"
    " if m.split('.')[0] == 'numpy' and type(mod) is types.ModuleType])"
)


class TestColdStart:
    # every subcommand runs as a fresh process, so what the import pulls in
    # is paid on every call; scipy must stay off that path, and numpy off
    # the path of a command whose kernels use only math

    @pytest.mark.parametrize("code", ["import packetlab", "import packetlab.cli"])
    def test_import_loads_no_numpy(self, code):
        assert fresh_python(f"{code}; {NUMPY_LOADED}") == "[]\n"

    @pytest.mark.parametrize("argv", [
        ["--help"], ["chsh", "--bogus"], ["bell"], ["chsh"], ["packet", "spread"],
        ["packet", "accum"], ["packet", "sterngerlach"], ["vonlaue"],
    ])
    def test_help_argv_errors_and_math_only_commands_load_no_numpy(self, argv):
        out = fresh_python(
            "import io\nfrom packetlab.cli import run\n"
            f"code = run({argv!r}, io.StringIO(), io.StringIO())\n{NUMPY_LOADED}; print(code)"
        )
        assert out == f"[]\n{1 if argv[1:] == ['--bogus'] else 0}\n"

    def test_a_command_that_needs_numpy_loads_it(self):
        # the check above sees a load: a run that builds an array has one
        out = fresh_python(
            "import io\nfrom packetlab.cli import run\n"
            f"run(['coherence'], io.StringIO())\n{NUMPY_LOADED}"
        )
        assert "'numpy'" in out

    def test_cli_import_loads_every_layer_module(self):
        # the benchmark's tracer wraps each layer's functions right after
        # `import packetlab.cli`, so the module graph stays eager
        layers = ["numkit", "spincorr", "configspace", "actionprob", "wavepacket",
                  "quantstat", "cli"]
        out = fresh_python(
            "import sys, packetlab.cli\n"
            f"print([n for n in {layers!r} if 'packetlab.' + n not in sys.modules])"
        )
        assert out == "[]\n"

    def test_cli_import_loads_no_scipy(self):
        out = fresh_python("import packetlab.cli; " + SCIPY_MODULES)
        assert out == "[]\n"

    def test_single_worker_runs_load_no_thread_pool(self):
        # concurrent.futures costs ~13 ms to import; only --shards > 1 needs it
        out = fresh_python(
            "import sys, io\n"
            "from packetlab.cli import run\n"
            "print('concurrent.futures' in sys.modules)\n"
            "run(['sample', '--n', '200000'], io.StringIO())\n"
            "print('concurrent.futures' in sys.modules)\n"
            "run(['sample', '--n', '200000', '--shards', '2'], io.StringIO())\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        want = "True" if (os.cpu_count() or 1) > 1 else "False"
        assert out.split() == ["False", "False", want]

    def test_numpy_random_loads_with_the_first_stream(self):
        # numpy 1.x imports numpy.random itself; packetlab loads it only once
        # a command draws, so a closed-form command leaves it as numpy did
        out = fresh_python(
            "import io, sys, numpy\n"
            "loaded_by_numpy = 'numpy.random' in sys.modules\n"
            "from packetlab.cli import run\n"
            "run(['chsh'], io.StringIO())\n"
            "print(('numpy.random' in sys.modules) == loaded_by_numpy)\n"
            "run(['sample', '--n', '1000'], io.StringIO())\n"
            "print('numpy.random' in sys.modules)\n"
        )
        assert out.split() == ["True", "True"]

    def test_cli_import_loads_no_argparse(self):
        # argv is read against the command registry
        out = fresh_python("import sys, packetlab.cli; print('argparse' in sys.modules)")
        assert out == "False\n"

    def test_package_import_loads_no_scipy(self):
        out = fresh_python("import packetlab; " + SCIPY_MODULES)
        assert out == "[]\n"

    def test_commands_that_need_special_functions_load_no_scipy(self):
        # counts and regress take a log-gamma, actionprob Hermite polynomials
        out = fresh_python(
            "import io, warnings\n"
            "from packetlab.cli import run\n"
            "warnings.simplefilter('ignore')\n"
            "for argv in (['counts', '--stat', 'bose', '--g', '1', '--mbar', '1',\n"
            "              '--mmax', '5'],\n"
            "             ['counts', '--stat', 'bose', '--g', '5', '--sbar', '3',\n"
            "              '--eta', '0.4'],\n"
            "             ['actionprob', '--width-ratio', '100'], ['regress']):\n"
            "    assert run(argv, io.StringIO(), io.StringIO()) == 0, argv\n"
            + SCIPY_MODULES
        )
        assert out == "[]\n"
