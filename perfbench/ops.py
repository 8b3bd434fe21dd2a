"""The benchmark's operations and the checks on their outputs.

Three operations, all through rgsv's public interface: an in-process
solve, ``compare(GmpPair(g1, g2), opts)``; and the ``rgsv compare`` and
``rgsv bounds`` commands, either as whole ``python -m rgsv`` processes or,
in the traced run, through ``rgsv.cli.main(argv)`` in this process. Every
output is checked. ``Tally.run`` counts an operation as failed when its
check fails, it raises, or the command exits non-zero; failures are
counted, never dropped.
"""

from __future__ import annotations

import csv
import json
import math
import os
import signal
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import rgsv
import rgsv.cli

COMMAND_FORMAT = {"compare": "json", "bounds": "csv"}
LAUNCHER = Path(__file__).with_name("launch.py")


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


class Tally:
    """Attempted and failed operations, and the largest GSV error seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_error = 0.0
        self.errors: list[str] = []

    def run(self, op):
        """Run ``op()`` and return its result, or None if it failed."""
        self.attempted += 1
        try:
            return op()
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("".join(traceback.format_exception_only(exc)).strip())
            return None

    def check_spectrum(self, alphas, betas, inputs) -> float:
        """Raise CheckFailed unless the spectrum is within the workload's
        target of the true one; return the error."""
        a = np.asarray(alphas, dtype=np.float64)
        b = np.asarray(betas, dtype=np.float64)
        if a.shape != inputs.alphas.shape or b.shape != inputs.betas.shape:
            raise CheckFailed(f"spectrum has {a.size}/{b.size} values, expected {inputs.alphas.size}")
        err = max(float(np.max(np.abs(a - inputs.alphas))), float(np.max(np.abs(b - inputs.betas))))
        if not err <= inputs.target:  # also rejects NaN
            raise CheckFailed(f"GSV error {err:.3e} exceeds the target {inputs.target:.0e}")
        self.max_error = max(self.max_error, err)
        return err

    def check_output(self, command: str, path: Path, inputs) -> None:
        if command == "compare":
            doc = json.loads(path.read_text())
            self.check_spectrum(doc["alphas"], doc["betas"], inputs)
        else:
            check_bounds_csv(path, inputs.alphas.size)


def check_bounds_csv(path: Path, n: int) -> None:
    """The certificate must have n finite, nonnegative per-index bounds,
    finite scalar bounds, and must not be vacuous."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < n + 1 or rows[0] != ["index", "p1_bound", "p2_bound"]:
        raise CheckFailed(f"{path.name}: expected a header and {n} per-index rows")
    values = [float(v) for row in rows[1:n + 1] for v in row[1:]]
    scalars = {row[0]: row[1] for row in rows[n + 1:] if len(row) == 2}
    for key in ("e_script", "theta_bound", "d1_bound", "d2_bound"):
        if key not in scalars:
            raise CheckFailed(f"{path.name}: no {key}")
        values.append(float(scalars[key]))
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise CheckFailed(f"{path.name}: a bound is negative or not finite")
    if scalars.get("vacuous") != "false":
        raise CheckFailed(f"{path.name}: certificate is vacuous")


def solve(inputs, opts, tally: Tally, around=nullcontext) -> float:
    """One timed solve from arrays in memory; returns its seconds. The
    check runs outside ``around()``, which the traced run uses to open the
    solve's root span."""
    with around():
        t0 = time.perf_counter()
        report = rgsv.compare(rgsv.GmpPair(inputs.g1, inputs.g2), opts)
        seconds = time.perf_counter() - t0
    tally.check_spectrum(report.spectrum.alphas, report.spectrum.betas, inputs)
    return seconds


def command_argv(command: str, inputs, seed: int, out: Path) -> list[str]:
    g1, g2 = inputs.compare_files if command == "compare" else inputs.bounds_files
    return [command, "--g1", str(g1), "--g2", str(g2), *inputs.cli_args(seed),
            "--format", COMMAND_FORMAT[command], "-o", str(out)]


def child_env(src: Path, blas_threads: int) -> dict[str, str]:
    """The environment of every rgsv child: rgsv from ``src``, pinned BLAS
    threads, and bytecode cached as for an installed package, whatever
    the caller's PYTHONDONTWRITEBYTECODE says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_process(argv: list[str], env: dict, cwd: Path, log: Path):
    """Run a child to completion through launch.py; return (exit code,
    wall seconds, max RSS in MB). The child's stderr goes to ``log``. If
    this process is interrupted, the launcher and the child are killed."""
    with open(log, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-I", "-S", str(LAUNCHER), *argv],
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=cwd, start_new_session=True)
        try:
            out, _ = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise CheckFailed(f"launch.py exited {proc.returncode}")
    code, seconds, rss_kib = out.split()
    return int(code), float(seconds), int(rss_kib) / 1024.0


def cli_process(command: str, inputs, seed: int, workdir: Path, env: dict, tally: Tally):
    """One whole `rgsv <command>` process; returns (seconds, max RSS MB)."""
    out = workdir / f"{command}.{COMMAND_FORMAT[command]}"
    out.unlink(missing_ok=True)
    log = workdir / f"{command}.stderr"
    argv = [sys.executable, "-m", "rgsv", *command_argv(command, inputs, seed, out)]
    code, seconds, rss_mb = run_process(argv, env, workdir, log)
    if code != 0:
        raise CheckFailed(f"rgsv {command} exited {code}: {log.read_text()[-300:].strip()}")
    tally.check_output(command, out, inputs)
    return seconds, rss_mb


def cli_in_process(command: str, inputs, seed: int, workdir: Path, tally: Tally,
                   around=nullcontext) -> None:
    """`rgsv <command>` through rgsv.cli.main in this process."""
    out = workdir / f"{command}.{COMMAND_FORMAT[command]}"
    out.unlink(missing_ok=True)
    argv = command_argv(command, inputs, seed, out)
    with around():
        code = rgsv.cli.main(argv)
    if code != 0:
        raise CheckFailed(f"rgsv {command} returned {code}")
    tally.check_output(command, out, inputs)
