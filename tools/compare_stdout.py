"""Byte comparison of packetlab's records between two checkouts.

    python tools/compare_stdout.py OLD_CHECKOUT NEW_CHECKOUT

Each argv below runs as a fresh ``python -m packetlab.cli`` process with
``PYTHONPATH=<checkout>/src``, once per checkout. One row per argv gives
the stdout sha256 and the exit code of each side and whether stderr
matches; a row where any of the three differs is marked MOVED, and the
exit status is 1 if any row moved.

The argv list comes from the checkout that holds this file:

- every ``packetlab`` line of the first README ``sh`` block that has any,
  extracted as CI extracts them (trailing comments cut, split on blanks);
- the ``montecarlo`` benchmark workload at seed 1, from ``bench/workloads.py``;
- ``regress`` at seeds 0 and 12345;
- records that print values of the isotropic draw, which ``regress``
  does not, and the SVD of ``condspace --symmetry none``;
- count laws whose first support doubles, or that span 10^5 points, and
  an ``lhv`` run that crosses a draw block and many audit blocks, on one
  thread and on two (``--shards 2``);
- a ``coherence`` and a ``condspace`` grid too small for a sampled function;
- the action audit at width ratio 2, where the scatterer's window is the
  whole grid and every moved probe clips it, and at the 10^4 cap with the
  most final packets;
- a singlet ``sample`` whose axis a has x, y and z parts and a
  semiclassical one whose axes between them have all three, so every
  sigma-component path of the pair sampler is pinned;
- the argv that each size cap refuses, and a count law that misses its
  own normalization.

Standard library only. This is not a test: the bytes hold only on one
machine with one numpy build (README). The children write no bytecode, so
both checkouts are left as they were.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

EXTRA_ARGVS = [
    ["lhv", "--family", "random", "--models", "20", "--settings", "1000"],
    ["lhv", "--family", "semiclassical", "--settings", "517"],
    ["condspace", "--symmetry", "none"],
    ["counts", "--stat", "bose", "--g", "1", "--sbar", "10"],
    ["counts", "--stat", "boltzmann", "--mbar", "100000"],
    ["lhv", "--family", "random", "--models", "3", "--settings", "70000"],
    ["lhv", "--family", "random", "--models", "3", "--settings", "70000", "--shards", "2"],
    ["coherence", "--points", "5"],
    ["condspace", "--grid", "-8,8,5"],
    ["actionprob", "--width-ratio", "2"],
    ["actionprob", "--width-ratio", "10000", "--finals", "16"],
    ["sample", "--a", "0.48,0.6,0.64", "--b", "0,0.6,0.8", "--n", "100000"],
    ["sample", "--model", "sc", "--a", "0.6,0.8,0", "--b", "0,0.6,0.8", "--n", "100000"],
]

SIZE_CAP_ARGVS = [
    ["cavity", "--bins", "5000000000000000000"],
    ["condspace", "--grid", "-8,8,257"],
    ["nosignal", "--max-dim", "65"],
    ["actionprob", "--width-ratio", "1e6"],
    ["counts", "--stat", "boltzmann", "--mbar", "1e7"],
    ["counts", "--stat", "bose", "--g", "10000000", "--sbar", "1e-6"],
]


def readme_argvs() -> list:
    """The packetlab lines of the first README sh block that has any."""
    argvs, inside = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line == "```sh":
            inside = True
        elif line.startswith("```"):
            if argvs:
                break
            inside = False
        elif inside and line.startswith("packetlab "):
            argvs.append(re.sub(r" +#.*$", "", line).split()[1:])
    return argvs


def montecarlo_argvs() -> list:
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import cli_workload

    return cli_workload("montecarlo", 1)


def argvs() -> list:
    return (readme_argvs() + montecarlo_argvs()
            + [["regress", "--seed", "0"], ["regress", "--seed", "12345"]]
            + EXTRA_ARGVS + SIZE_CAP_ARGVS)


def run(checkout: pathlib.Path, argv: list) -> tuple:
    """(stdout sha256, exit code, stderr) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "packetlab.cli", *argv], cwd=checkout,
                          env=env, stdin=subprocess.DEVNULL, capture_output=True)
    return hashlib.sha256(proc.stdout).hexdigest(), proc.returncode, proc.stderr


def main(args: list) -> int:
    if len(args) != 2 or not all((pathlib.Path(a) / "src" / "packetlab").is_dir()
                                 for a in args):
        print("usage: compare_stdout.py OLD_CHECKOUT NEW_CHECKOUT "
              "(each with src/packetlab)", file=sys.stderr)
        return 2
    old, new = (pathlib.Path(a).resolve() for a in args)
    rows = argvs()
    moved = 0
    print("mark   old stdout sha256, exit | new stdout sha256, exit | stderr | argv")
    for argv in rows:
        (old_sha, old_rc, old_err), (new_sha, new_rc, new_err) = run(old, argv), run(new, argv)
        same = (old_sha, old_rc, old_err) == (new_sha, new_rc, new_err)
        moved += not same
        print(f"{'same ' if same else 'MOVED'}  {old_sha} {old_rc} | {new_sha} {new_rc} | "
              f"{'same' if old_err == new_err else 'DIFF'} | {' '.join(argv)}", flush=True)
    print(f"{moved} of {len(rows)} rows moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
