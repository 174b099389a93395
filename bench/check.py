"""Output checker: decides whether one packetlab operation succeeded.

An operation fails on a non-zero exit or a traceback on stderr; on stdout
that is not strict JSON, or CSV without the expected header; on a
regress record with ``all_ok`` false; on an lhv or nosignal record with
``satisfied`` false; on a Monte Carlo estimate more than 5 sigma from its
closed form (sigma taken from the record itself, so a correct program
fails with odds below 1e-6); on an untruncated count distribution whose
weights miss 1 by more than 1e-9; and on a repeat of an argv whose stdout
is not byte-identical to the first. Every check returns a list of
problems, empty when the output is good.

Standard library only, so the driver can check without importing numpy.
"""

from __future__ import annotations

import hashlib
import json
import math

TRACEBACK = "Traceback (most recent call last)"
SIGMAS = 5.0
SUM_TOL = 1e-9
CSV_HEADERS = {
    "counts": "m,W",
    "cavity": "nu,x,g,count,energy_density",
    "condspace": "x,conditional,density",
}
SAMPLE_COUNTS = ("n_pp", "n_pm", "n_mp", "n_mm")


def _reject_constant(token):
    raise ValueError(f"non-finite token {token}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def flag(argv, name: str):
    """Value of ``--name V`` or ``--name=V`` in argv, else None."""
    for i, arg in enumerate(argv):
        if arg == f"--{name}" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(f"--{name}="):
            return arg.split("=", 1)[1]
    return None


def check_cli(argv, returncode: int, stdout: str, stderr: str) -> list:
    """Problems with one CLI invocation's exit code and output."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if TRACEBACK in stderr:
        problems.append("traceback on stderr")
    if problems:
        return problems
    if flag(argv, "format") == "csv":
        return _check_csv(argv, stdout)
    try:
        record = strict_json(stdout)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"]
    try:
        return _check_record(record)
    except (KeyError, TypeError) as exc:
        return [f"record lacks an expected field: {exc!r}"]


def within(value: float, reference: float, three_sigma: float, what: str) -> list:
    sigma = three_sigma / 3.0
    if abs(value - reference) <= SIGMAS * sigma:
        return []
    return [f"{what} {value!r} is more than {SIGMAS:g} sigma ({sigma!r}) "
            f"from {reference!r}"]


def _check_weights(weights, what: str) -> list:
    total = math.fsum(weights)
    if abs(total - 1.0) <= SUM_TOL:
        return []
    return [f"{what} sums to {total!r}, not 1 within {SUM_TOL:g}"]


def _check_record(record: dict) -> list:
    command = record["command"]
    if command == "regress" and record["all_ok"] is not True:
        failing = [c["name"] for c in record["checks"] if not c["ok"]]
        return [f"regress all_ok is false: {', '.join(failing)}"]
    if command in ("lhv", "nosignal") and record["satisfied"] is not True:
        return [f"{command} satisfied is false"]
    if command == "chsh" and "K_mc" in record:
        return within(record["K_mc"], record["K"], record["three_sigma"], "K_mc")
    if command == "sample":
        return within(record["expectation_estimate"],
                      record["expectation_closed_form"],
                      record["three_sigma"], "expectation_estimate")
    if command == "counts":
        problems = []
        if record["params"]["mmax"] is None:
            problems += _check_weights(record["w"], "w")
        if "mc_samples" in record:
            n = record["mc_samples"]
            problems += within(record["mc_mean"], record["m_bar"],
                               3.0 * math.sqrt(record["variance"] / n), "mc_mean")
            problems += within(record["mc_variance"], record["variance"],
                               record["variance_three_sigma"], "mc_variance")
        return problems
    return []


def _check_csv(argv, text: str) -> list:
    header = CSV_HEADERS.get(argv[0])
    lines = text.split("\n")
    if header is None or lines[0] != header:
        return [f"CSV header {lines[0][:80]!r} is not {header!r}"]
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    width = header.count(",") + 1
    columns = [[] for _ in range(width)]
    for n, line in enumerate(lines[1:-1], start=2):
        cells = line.split(",")
        if len(cells) != width:
            return [f"CSV line {n} has {len(cells)} cells, not {width}"]
        for column, cell in zip(columns, cells):
            try:
                value = float(cell)
            except ValueError:
                return [f"CSV line {n}: {cell!r} is not a number"]
            if not math.isfinite(value):
                return [f"CSV line {n}: non-finite value {cell!r}"]
            column.append(value)
    if argv[0] == "counts" and flag(argv, "mmax") is None:
        return _check_weights(columns[1], "W column")
    return []


class Repeats:
    """Flags a repeated argv whose stdout differs from its first run."""

    def __init__(self):
        self._digests = {}

    def see(self, argv, stdout: bytes) -> list:
        key = "\0".join(argv)
        digest = hashlib.sha256(stdout).hexdigest()
        first = self._digests.setdefault(key, digest)
        if first == digest:
            return []
        return ["stdout differs from an earlier run of the same argv"]


def shard_mismatches(argvs, stdouts) -> int:
    """Coincidence counts that differ between sample records whose argv
    differ only in --shards, summed over every such pair of records."""
    groups = {}
    for argv, stdout in zip(argvs, stdouts):
        if argv[0] != "sample":
            continue
        try:
            record = strict_json(stdout)
        except ValueError:
            continue  # already counted as a failed operation
        i = argv.index("--shards") if "--shards" in argv else len(argv)
        groups.setdefault(tuple(argv[:i] + argv[i + 2:]), []).append(record)
    return sum(first[k] != other[k]
               for first, *others in groups.values()
               for other in others for k in SAMPLE_COUNTS)
