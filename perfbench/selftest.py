"""Self-test of the benchmark's checks and tracing; a few seconds.

    python3 perfbench/selftest.py

Shows that a wrong output is counted as a failed operation (a perturbed
spectrum, a perturbed compare report, a vacuous certificate, a command
that exits non-zero), that a traced name which no longer exists is
reported as unmeasured rather than zero, and that BENCHMARK.json names
the metrics the benchmark prints.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from run import END_TO_END, HERE, ROOT, SRC, BLAS_THREADS

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import rgsv  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402
from workloads import Inputs  # noqa: E402


def expect(condition, what):
    if not condition:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def small_inputs(workdir: Path) -> Inputs:
    res = rgsv.synth_gmp(rgsv.SynthSpec(60, 50, 40, 0.6, seed=3, field="real"))
    files = (workdir / "g1.mtx", workdir / "g2.mtx")
    rgsv.write_matrix(files[0], res.pair.g1)
    rgsv.write_matrix(files[1], res.pair.g2)
    truth = res.true_spectrum
    return Inputs(res.pair.g1, res.pair.g2, truth.alphas, truth.betas, None, 1e-8, files, files)


def main() -> int:
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        workdir = Path(tmp)
        inputs = small_inputs(workdir)
        opts = inputs.options(seed=0)

        tally = ops.Tally()
        tally.run(lambda: ops.solve(inputs, opts, tally))
        expect((tally.attempted, tally.failed) == (1, 0), "a correct solve passes its check")

        shifted = inputs.alphas.copy()
        k = int(np.argmax((shifted > 0) & (shifted < 1)))  # an interior GSV
        shifted[k] += 1e-7
        perturbed = dataclasses.replace(inputs, alphas=shifted)
        tally.run(lambda: ops.solve(perturbed, opts, tally))
        expect((tally.attempted, tally.failed) == (2, 1),
               "a spectrum 1e-7 off the truth counts as a failed solve")

        env = ops.child_env(SRC, BLAS_THREADS)
        tally = ops.Tally()
        for command in ("compare", "bounds"):
            tally.run(lambda: ops.cli_process(command, inputs, 0, workdir, env, tally))
        expect((tally.attempted, tally.failed) == (2, 0), "rgsv compare and bounds pass their checks")

        report = workdir / "compare.json"
        doc = json.loads(report.read_text())
        doc["alphas"][k] += 1e-7
        report.write_text(json.dumps(doc))
        tally.run(lambda: tally.check_output("compare", report, inputs))
        expect(tally.failed == 1, "a perturbed compare report counts as a failure")

        cert = workdir / "bounds.csv"
        cert.write_text(cert.read_text().replace("vacuous,false", "vacuous,true"))
        tally.run(lambda: tally.check_output("bounds", cert, inputs))
        expect(tally.failed == 2, "a vacuous certificate counts as a failure")

        missing = dataclasses.replace(inputs, compare_files=(workdir / "absent.csv",) * 2)
        tally.run(lambda: ops.cli_process("compare", missing, 0, workdir, env, tally))
        expect(tally.failed == 3, "an rgsv process that exits non-zero counts as a failure")

        for dotted, how in (("rgsv.engine.extract_basis_renamed", "no longer exists"),
                            ("rgsv.rangefinder.extract_basis", "is no longer called")):
            targets = [(dotted, "extract_basis"),
                       *[t for t in tracing.TARGETS if t[1] != "extract_basis"]]
            tr = tracing.Tracer(targets)
            ops.solve(inputs, opts, ops.Tally(), around=lambda: tr.operation("solve"))
            summaries = {"solve": [tracing.solve_summary(tr, tr.last_root, explicit=True)]}
            layers = tracing.per_layer(tr, summaries, {})
            expect(layers["rangefinder.extract_s.g1"][0] is None
                   and layers["rangefinder.cols_kept.g1"][0] is None
                   and layers["engine.block_svd_s"][0] is not None,
                   f"a wrapped name that {how} is unmeasured, not zero")
        expect(not hasattr(rgsv.engine.extract_basis, "__wrapped__")
               and not hasattr(rgsv.GmpPair.__post_init__, "__wrapped__"),
               "the wrappers are removed after a traced operation")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END.items()),
           "BENCHMARK.json end_to_end matches the metrics measured")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [row[:3] for row in tracing.PER_LAYER],
           "BENCHMARK.json per_layer matches the metrics traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
