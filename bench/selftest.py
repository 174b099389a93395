"""Self-tests of the benchmark's checker and tracer.

    python3 bench/selftest.py

The tracer tests import packetlab from the ``src`` directory beside this
one.
"""

from __future__ import annotations

import io
import json
import sys
import unittest
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SAMPLE = ('{"command": "sample", "n_pp": %d, "n_pm": 1, "n_mp": 1, "n_mm": 1, '
          '"expectation_estimate": %s, "three_sigma": 0.03, '
          '"expectation_closed_form": -0.7071067811865475}\n')


class CheckerTest(unittest.TestCase):
    def test_rejects_nan_and_infinity_tokens(self):
        for token in ("NaN", "Infinity", "-Infinity"):
            problems = check.check_cli(["chsh"], 0,
                                       '{"command": "chsh", "K": %s}\n' % token, "")
            self.assertTrue(problems, token)
        self.assertEqual(check.check_cli(["chsh"], 0, '{"command": "chsh", "K": 2.5}', ""),
                         [])

    def test_rejects_failing_regress(self):
        record = ('{"command": "regress", "checks": [{"name": "%s", "ok": %s}], '
                  '"all_ok": %s}')
        self.assertTrue(check.check_cli(["regress"], 0,
                                        record % ("chsh_qm_mc", "false", "false"), ""))
        self.assertEqual(check.check_cli(["regress"], 0,
                                         record % ("chsh_qm_mc", "true", "true"), ""), [])

    def test_rejects_exit_code_and_traceback(self):
        good = '{"command": "accum"}'
        self.assertTrue(check.check_cli(["accum"], 2, good, ""))
        self.assertTrue(check.check_cli(["accum"], 0, good,
                                        f"{check.TRACEBACK}:\n  ValueError\n"))

    def test_rejects_nonidentical_repeat(self):
        repeats = check.Repeats()
        self.assertEqual(repeats.see(["chsh", "--mc", "10"], b"one\n"), [])
        self.assertEqual(repeats.see(["chsh", "--mc", "10"], b"one\n"), [])
        self.assertEqual(repeats.see(["chsh"], b"two\n"), [])
        self.assertTrue(repeats.see(["chsh", "--mc", "10"], b"one \n"))

    def test_monte_carlo_five_sigma(self):
        self.assertEqual(check.check_cli(["sample"], 0, SAMPLE % (1, "-0.72"), ""), [])
        self.assertTrue(check.check_cli(["sample"], 0, SAMPLE % (1, "-0.64"), ""))

    def test_csv_header_and_weights(self):
        argv = ["counts", "--format", "csv"]
        self.assertEqual(check.check_cli(argv, 0, "m,W\n0,0.5\n1,0.5\n", ""), [])
        self.assertTrue(check.check_cli(argv, 0, "m,w\n0,0.5\n1,0.5\n", ""))
        self.assertTrue(check.check_cli(argv, 0, "m,W\n0,0.5\n1,0.4\n", ""))
        self.assertTrue(check.check_cli(argv, 0, "m,W\n0,0.5\n1,nan\n", ""))
        self.assertEqual(check.check_cli(argv + ["--mmax", "1"], 0,
                                         "m,W\n0,0.5\n1,0.4\n", ""), [])

    def test_shard_mismatches(self):
        argvs = [["sample", "--shards", "1"], ["sample", "--shards", "2"], ["chsh"]]
        same = [SAMPLE % (5, "-0.7")] * 2 + ["{}"]
        differ = [SAMPLE % (5, "-0.7"), SAMPLE % (6, "-0.7"), "{}"]
        self.assertEqual(check.shard_mismatches(argvs, same), 0)
        self.assertEqual(check.shard_mismatches(argvs, differ), 1)


class DriverTest(unittest.TestCase):
    def test_import_time_counts_each_module_once(self):
        report = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |       scipy.stats._x",
            "import time:        20 |         30 |     scipy.stats._stats_py",
            "import time:         5 |          5 |     numpy.linalg",
            "import time:         7 |         42 |   packetlab.cli",
        ])
        self.assertAlmostEqual(run.import_time(report, lambda n: n.startswith("scipy.stats")),
                               30e-6)
        self.assertAlmostEqual(run.import_time(report, lambda n: n == "packetlab.cli"), 42e-6)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail(range(34, 0, -1)), (24, 24, 34))
        self.assertEqual(run.tail(range(11)), (0, 1, 11))
        with self.assertRaises(ValueError):
            run.tail(range(10))


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_the_reported_metrics(self):
        manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in manifest["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in manifest["per_layer"]],
                         spans.METRICS)

    def test_every_run_has_a_tail_percentile(self):
        for name in workloads.WORKLOADS:
            ops = (len(workloads.library_calls(0)) if name == "library"
                   else len(workloads.cli_workload(name, 0)))
            for seconds in (1, 24, 60):
                self.assertGreaterEqual(workloads.passes(name, seconds, ops) * ops,
                                        workloads.MIN_SAMPLES)


class TracerTest(unittest.TestCase):
    CLI_ARGVS = [
        ["chsh", "--mc", "20000", "--seed", "3"],
        ["sample", "--n", "5000", "--shards", "2", "--seed", "4"],
        ["counts", "--stat", "bose", "--g", "2", "--mbar", "3", "--mc", "2000"],
        ["cavity", "--bins", "60", "--entropy"],
        ["cavity", "--bins", "60", "--format", "csv"],
        ["nosignal", "--trials", "20"],
        ["actionprob"],
        ["coherence", "--points", "512"],
        ["condspace", "--grid=-8,8,64"],
    ]
    LIBRARY_CALLS = [
        ("numkit.fourier_widths", {"points": 512}),
        ("wavepacket.coherence_profile", {"points": 1024}),
        ("quantstat.entropy_and_derivatives", {"bins": 80}),
        ("configspace.fermi_pair", {"points": 64}),
        ("actionprob.action_ratio_audit", {}),
        ("spincorr.sample_pair_counts", {"pairs": 20000, "seed": 11}),
    ]

    def _cli_outputs(self):
        from packetlab import cli
        outputs = []
        for argv in self.CLI_ARGVS:
            out = io.StringIO()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = cli.run(argv, stdout=out, stderr=io.StringIO())
            self.assertEqual(rc, 0, argv)
            outputs.append(out.getvalue())
        return outputs

    def _library_outputs(self):
        import packetlab
        outputs, _ = inproc.library_pass(packetlab, self.LIBRARY_CALLS)
        for (name, inputs), out in zip(self.LIBRARY_CALLS, outputs):
            self.assertNotIsInstance(out, Exception, name)
        return [repr(out) for out in outputs]

    def _traced(self, fn):
        tracer = spans.Tracer()
        tracer.install()
        try:
            return fn(), tracer
        finally:
            tracer.uninstall()

    def test_wrappers_leave_return_values_unchanged(self):
        for fn in (self._cli_outputs, self._library_outputs):
            plain = fn()
            traced, tracer = self._traced(fn)
            self.assertEqual(traced, plain)
            self.assertGreater(tracer.summary()["numkit.calls"], 0)

    def test_counts_and_self_times(self):
        _, tracer = self._traced(self._cli_outputs)
        summary = tracer.summary()
        self.assertEqual(summary["cli.calls"], len(self.CLI_ARGVS))
        self.assertEqual(summary["spincorr.pairs"], 4 * 20000 + 5000)
        self.assertGreaterEqual(summary["numkit.rng_variates"], 4 * summary["spincorr.pairs"])
        self.assertGreater(summary["quantstat.occupancy_calls"], 0)
        self.assertGreater(summary["quantstat.support_points"], 0)
        # self times partition the root spans: nothing counted twice or lost
        roots = sum(end - start for _, _, start, end, parent in tracer.spans
                    if parent < 0)
        self_total = sum(summary[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.assertAlmostEqual(self_total, roots, places=9)

    def test_uninstall_restores_every_original(self):
        import packetlab.cli  # noqa: F401
        names = [n for n in sys.modules if n.split(".")[0] == "packetlab"]
        before = {n: dict(vars(sys.modules[n])) for n in names}
        stream = dict(vars(sys.modules["packetlab.numkit"].RandomStream))
        self._traced(lambda: None)
        for n in names:
            after = vars(sys.modules[n])
            for key, value in before[n].items():
                self.assertIs(after[key], value, f"{n}.{key}")
        self.assertEqual(dict(vars(sys.modules["packetlab.numkit"].RandomStream)), stream)


if __name__ == "__main__":
    unittest.main()
