import csv
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest
from _util import allowance, child_env, record_rows, structured_pair

import rgsv.cli
import rgsv.core
import rgsv.engine
from rgsv import (ExtractionConfig, GmpPair, GsvOptions, extract_basis, frobenius_norm,
                  gaussian_matrix, perturbation_bound, read_matrix, residual_norm, run,
                  write_matrix)
from rgsv.cli import main


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "rgsv", *args],
        capture_output=True,
        text=True,
        env=child_env(env),
    )


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("pair")
    g1 = gaussian_matrix(24, 12, seed=1)
    g2 = gaussian_matrix(20, 12, seed=2)
    write_matrix(d / "g1.mtx", g1)
    write_matrix(d / "g2.mtx", g2)
    return d / "g1.mtx", d / "g2.mtx"


def test_gsv_stdout_csv(pair_files):
    g1, g2 = pair_files
    proc = run_cli("gsv", "--g1", str(g1), "--g2", str(g2), "--method", "direct")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "index,alpha,beta"
    assert len(lines) == 1 + 12 + 2


def test_compare_json_output(pair_files, tmp_path):
    g1, g2 = pair_files
    out = tmp_path / "report.json"
    proc = run_cli(
        "compare", "--g1", str(g1), "--g2", str(g2),
        "--seed", "7", "-o", str(out), "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        rep = json.load(fh)
    assert rep["kind"] == "comparative_report"
    assert rep["meta"]["seed"] == 7
    assert len(rep["theta"]) == 12


def test_identical_invocations_identical_output(pair_files, tmp_path):
    g1, g2 = pair_files
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = run_cli(
            "gsv", "--g1", str(g1), "--g2", str(g2), "--seed", "9",
            "-o", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def _assert_seed_env_var_default(command, inputs, tmp_path):
    a = tmp_path / "env.csv"
    b = tmp_path / "flag.csv"
    proc = run_cli(command, *inputs, "-o", str(a), env={"RGSV_SEED": "33"})
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(command, *inputs, "-o", str(b), "--seed", "33")
    assert proc.returncode == 0, proc.stderr
    assert a.read_text() == b.read_text()


def test_seed_env_var_default(pair_files, tmp_path):
    g1, g2 = pair_files
    _assert_seed_env_var_default("gsv", ["--g1", str(g1), "--g2", str(g2)], tmp_path)


def test_extract_seed_env_var_default(pair_files, tmp_path):
    g1, _ = pair_files
    _assert_seed_env_var_default(
        "extract", ["--input", str(g1), "--blocksize", "4"], tmp_path
    )


def test_extract_history(pair_files, tmp_path):
    g1, _ = pair_files
    out = tmp_path / "basis.json"
    proc = run_cli(
        "extract", "--input", str(g1), "--blocksize", "4",
        "-o", str(out), "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        res = json.load(fh)
    assert res["kind"] == "basis_result"
    assert res["columns"] >= 1
    assert len(res["residual_history"]) == res["iterations"] + 1


def test_extract_reports_the_explicit_residual(tmp_path):
    # lowrank_tall's g1, 4000 x 400 with 40 GSVs over a 1e-10 tail, at tol
    # 1e-6 ||G1||_F: ||G - QB||_F, about 1.4e-8, lies below the cancellation
    # floor sqrt(eps) ||G1||_F, so the cumulative estimate ||G||_F^2 minus
    # the captured energy misses it by far more than the tolerance below
    alphas = np.concatenate([np.linspace(0.99, 0.5, 40), 1e-10 * np.geomspace(1.0, 1e-3, 360)])
    g = structured_pair(alphas, m=4000, p=400, seed=1)[0].g1
    nrm = frobenius_norm(g)
    basis = extract_basis(g, ExtractionConfig(tol=1e-6 * nrm, seed=1))
    explicit = residual_norm(g, basis.q)
    estimate = np.sqrt(max(nrm**2 - rgsv.core.sum_sq(basis.b), 0.0))
    assert 1e-11 * nrm < explicit < np.sqrt(np.finfo(float).eps) * nrm
    assert abs(estimate - explicit) > 1e-12 * nrm
    assert abs(basis.residual_history[-1] - explicit) <= 1e-12 * nrm
    write_matrix(tmp_path / "g1.mtx", g)
    out = tmp_path / "basis.csv"
    argv = ["extract", "--input", str(tmp_path / "g1.mtx"), "--tol", repr(1e-6 * nrm),
            "--seed", "1", "-o", str(out)]
    assert main(argv) == 0
    rows = list(csv.reader(out.open()))
    last = [row for row in rows[1:] if row[0].isdigit()][-1]
    assert abs(float(last[1]) - explicit) <= 1e-12 * nrm


@pytest.mark.parametrize("command", ["gsv", "compare", "bounds"])
def test_a_capped_side_is_reported_on_stderr(pair_files, command):
    # 8 of 12 columns cannot capture either full-rank side; the run is
    # reported as before, and the warning names both sides
    g1, g2 = pair_files
    proc = run_cli(command, "--g1", str(g1), "--g2", str(g2), "--max-cols", "8", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert "extraction stopped unconverged: g1 kept max_cols = 8 columns" in proc.stderr
    assert "; g2 kept max_cols = 8 columns" in proc.stderr
    assert proc.stdout.splitlines()[0] == {"gsv": "index,alpha,beta",
                                           "compare": "index,alpha,beta,rho,theta,p1,p2",
                                           "bounds": "index,p1_bound,p2_bound"}[command]


def test_synth_writes_pair_and_truth(tmp_path):
    d = tmp_path / "synth"
    proc = run_cli(
        "synth", "--m", "30", "--p", "25", "--n", "20",
        "--rank-frac", "0.8", "--seed", "3", "--field", "real",
        "--out-dir", str(d),
    )
    assert proc.returncode == 0, proc.stderr
    from rgsv import read_matrix

    g1 = read_matrix(d / "g1.mtx")
    g2 = read_matrix(d / "g2.mtx")
    assert g1.shape == (30, 20)
    assert g2.shape == (25, 20)
    truth = (d / "truth.csv").read_text().splitlines()
    assert truth[0] == "index,alpha,beta"


def test_bounds_certificate(pair_files, tmp_path):
    g1, g2 = pair_files
    out = tmp_path / "cert.json"
    proc = run_cli(
        "bounds", "--g1", str(g1), "--g2", str(g2),
        "--k", "4", "--oversample", "3", "--tol", "1e-12", "--seed", "3",
        "-o", str(out), "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        cert = json.load(fh)
    assert cert["kind"] == "bound_certificate"
    # eta and e are those of the run gsv makes with the same flags
    pair = GmpPair(read_matrix(g1), read_matrix(g2))
    solve = run(pair, GsvOptions(extraction=ExtractionConfig(tol=1e-12, seed=3)))
    assert cert["eta"] == float(solve.r_singular_values[0]) ** 2
    assert cert["e_script"] == perturbation_bound(pair, solve) > 0
    assert "projector_bound[first]" in proc.stderr
    assert "projector_bound[second]" in proc.stderr


def test_bounds_k_that_fits_one_side(tmp_path, capsys):
    # k + oversample = 13 fits g1 (min(40, 20) = 20) but not g2 (min(10, 20) = 10)
    write_matrix(tmp_path / "g1.mtx", gaussian_matrix(40, 20, seed=1))
    write_matrix(tmp_path / "g2.mtx", gaussian_matrix(10, 20, seed=2))
    out = tmp_path / "cert.csv"
    argv = ["bounds", "--g1", str(tmp_path / "g1.mtx"), "--g2", str(tmp_path / "g2.mtx"),
            "--k", "8", "-o", str(out)]
    assert main(argv) == 0
    assert out.read_text().startswith("index,p1_bound,p2_bound\n")
    first, second = capsys.readouterr().err.splitlines()
    assert first.startswith("projector_bound[first] (k=8, oversample=5): ")
    float(first.rsplit(" ", 1)[1])
    assert second.startswith("projector_bound[second] (k=8, oversample=5): not applicable: ")
    assert "exceeds min dimension 10" in second


@pytest.mark.parametrize("k", ["1", "20"])
def test_bounds_rejects_bad_k_before_writing(pair_files, tmp_path, k):
    # k = 1 is below the minimum; k = 20 plus the oversample exceeds n = 12
    g1, g2 = pair_files
    out = tmp_path / "cert.csv"
    assert main(["bounds", "--g1", str(g1), "--g2", str(g2), "--k", k, "-o", str(out)]) == 5
    assert not out.exists()


@pytest.mark.parametrize("oversample", ["1", "-3"])
def test_bounds_rejects_bad_oversample_without_k(pair_files, tmp_path, oversample):
    # projector_bound's rule holds whether or not --k asks for the bound
    g1, g2 = pair_files
    out = tmp_path / "cert.csv"
    argv = ["bounds", "--g1", str(g1), "--g2", str(g2), "--oversample", oversample, "-o", str(out)]
    assert main(argv) == 5
    assert not out.exists()


@pytest.mark.parametrize("trim_tol", ["nan", "inf"])
def test_gsv_rejects_non_finite_trim_tol(pair_files, tmp_path, trim_tol):
    # a validation error (5), not the rank error (6) of an emptied basis
    g1, g2 = pair_files
    out = tmp_path / "gsv.csv"
    assert main(["gsv", "--g1", str(g1), "--g2", str(g2), "--trim-tol", trim_tol, "-o", str(out)]) == 5
    assert not out.exists()


@pytest.mark.parametrize("command", ["gsv", "extract"])
def test_rejects_infinite_tol(pair_files, tmp_path, command):
    # gsv would exit 6 on an empty basis, extract 0 with one marked converged
    g1, g2 = pair_files
    inputs = ["--g1", str(g1), "--g2", str(g2)] if command == "gsv" else ["--input", str(g1)]
    out = tmp_path / "out.csv"
    assert main([command, *inputs, "--tol", "inf", "-o", str(out)]) == 5
    assert not out.exists()


def test_bounds_has_no_method_flag(pair_files, capsys):
    # bounds certifies the randomized solve that gsv runs by default; a
    # direct solve's certificate would be its rounding allowance alone
    g1, g2 = pair_files
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--g1", str(g1), "--g2", str(g2), "--method", "direct"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _tall_pair_files(tmp_path, g1_rank):
    """A 600/500/60 pair written to Matrix Market files: g1 of rank
    ``g1_rank`` (60 for full rank), g2 full rank. Both sides are tall."""
    g1 = gaussian_matrix(600, g1_rank, seed=53) @ gaussian_matrix(g1_rank, 60, seed=54)
    files = tmp_path / "g1.mtx", tmp_path / "g2.mtx"
    write_matrix(files[0], g1)
    write_matrix(files[1], gaussian_matrix(500, 60, seed=55))
    return files


def _record_front_ends(monkeypatch):
    """(matrix digest, config, probe) of every extraction the engine runs
    and the rows of every side it factors R-only, in order."""
    events = []
    extract, r_factor = rgsv.engine.extract_basis, rgsv.core.r_factor

    def recording_extract(g, cfg, probe=False):
        events.append(("extract", hashlib.sha256(g.tobytes()).hexdigest(), cfg, probe))
        return extract(g, cfg, probe=probe)

    def recording_r_factor(g):
        events.append(("r", g.shape[0]))
        return r_factor(g)

    monkeypatch.setattr(rgsv.engine, "extract_basis", recording_extract)
    monkeypatch.setattr(rgsv.core, "r_factor", recording_r_factor)
    return events


def test_bounds_certifies_the_solve_gsv_runs(tmp_path, monkeypatch):
    # a rank-12 g1 is sketched through its probe and g2 goes exact; bounds
    # must make the same front ends and centre on the spectrum gsv writes
    files = _tall_pair_files(tmp_path, g1_rank=12)
    flags = ["--g1", str(files[0]), "--g2", str(files[1]), "--seed", "56"]
    events = _record_front_ends(monkeypatch)
    assert main(["gsv", *flags, "-o", str(tmp_path / "gsv.json"), "--format", "json"]) == 0
    gsv_events = list(events)
    events.clear()
    centres = []
    certify = rgsv.cli.quantity_error_bounds

    def recording_certify(spectrum, e_script, eta=None):
        centres.append(spectrum)
        return certify(spectrum, e_script, eta=eta)

    monkeypatch.setattr(rgsv.cli, "quantity_error_bounds", recording_certify)
    assert main(["bounds", *flags, "-o", str(tmp_path / "cert.csv")]) == 0
    assert [e[0] for e in gsv_events] == ["extract", "r"] and gsv_events[0][3]
    assert events == gsv_events
    written = json.loads((tmp_path / "gsv.json").read_text())
    (spec,) = centres
    assert spec.alphas.tolist() == written["alphas"] and spec.betas.tolist() == written["betas"]


def test_bounds_of_a_both_exact_pair_is_the_rounding_allowance(tmp_path):
    files = _tall_pair_files(tmp_path, g1_rank=60)
    out = tmp_path / "cert.json"
    argv = ["bounds", "--g1", str(files[0]), "--g2", str(files[1]), "--seed", "57",
            "-o", str(out), "--format", "json"]
    assert main(argv) == 0
    pair = GmpPair(read_matrix(files[0]), read_matrix(files[1]))
    solve = run(pair, GsvOptions(extraction=ExtractionConfig(seed=57)))
    assert solve.residuals == (0.0, 0.0)
    assert json.loads(out.read_text())["e_script"] == allowance(pair, solve)


@pytest.mark.parametrize("k", [None, "4"])
def test_bounds_factors_the_stack_only_for_k(tmp_path, monkeypatch, k):
    # eta of --k's projector bound is stack_norm2^2, one SVD of the
    # (m + p) x n stack; the certificate itself factors no stack. Every
    # factorization reaches numpy's LAPACK wrapper once, through
    # core.svd, core.reduced_qr or core.r_factor, so those are counted
    m, p, n = 90, 80, 20
    files = tmp_path / "g1.mtx", tmp_path / "g2.csv"
    write_matrix(files[0], gaussian_matrix(m, n, seed=50))
    np.savetxt(files[1], gaussian_matrix(p, n, seed=51), delimiter=",")
    rows = record_rows(monkeypatch, (np.linalg, "svd"), (np.linalg, "qr"))
    argv = ["bounds", "--g1", str(files[0]), "--g2", str(files[1]),
            "--seed", "52", "-o", str(tmp_path / "cert.csv")]
    assert main(argv + (["--k", k] if k else [])) == 0
    assert rows and rows.count(m + p) == (1 if k else 0)


class TestErrorExits:
    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,x\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("1,0\n0,1\n")
        proc = run_cli("gsv", "--g1", str(bad), "--g2", str(ok))
        assert proc.returncode == 3
        assert "category=parse" in proc.stderr

    def test_undecodable_file_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe1,0\n0,1\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("1,0\n0,1\n")
        assert main(["gsv", "--g1", str(bad), "--g2", str(ok)]) == 3
        assert "category=parse" in capsys.readouterr().err

    def test_missing_file_exit(self, tmp_path):
        proc = run_cli("gsv", "--g1", str(tmp_path / "no.mtx"),
                       "--g2", str(tmp_path / "no2.mtx"))
        assert proc.returncode == 3
        assert "category=parse" in proc.stderr

    def test_rank_error_exit(self, tmp_path):
        f = tmp_path / "rank1.csv"
        f.write_text("1,2\n2,4\n")  # rank deficient
        proc = run_cli("gsv", "--g1", str(f), "--g2", str(f))
        assert proc.returncode == 6
        assert "category=rank" in proc.stderr

    def test_dimension_error_exit(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("1,0\n0,1\n")
        b = tmp_path / "b.csv"
        b.write_text("1\n2\n")
        proc = run_cli("gsv", "--g1", str(a), "--g2", str(b))
        assert proc.returncode == 4
        assert "category=dimension" in proc.stderr

    def test_output_error_exit(self, pair_files, tmp_path, capsys):
        g1, g2 = pair_files
        out = tmp_path / "missing" / "out.csv"
        assert main(["gsv", "--g1", str(g1), "--g2", str(g2), "-o", str(out)]) == 11
        assert capsys.readouterr().err.startswith("error: category=io: ")
        assert not out.parent.exists()

    def test_non_converging_kernel_exit(self, pair_files, tmp_path, monkeypatch, capsys):
        # the solve converges; the SVD of its R~, which the certificate
        # reads, does not
        g1, g2 = pair_files
        solve = rgsv.cli.run

        def solve_then_fail(*args, **kwargs):
            result = solve(*args, **kwargs)
            monkeypatch.setattr(np.linalg, "svd", failing_svd)
            return result

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(rgsv.cli, "run", solve_then_fail)
        out = tmp_path / "cert.csv"
        assert main(["bounds", "--g1", str(g1), "--g2", str(g2), "-o", str(out)]) == 7
        assert capsys.readouterr().err.startswith("error: category=numerical: ")
        assert not out.exists()

    def test_usage_error_exit(self):
        proc = run_cli("gsv")
        assert proc.returncode == 2  # argparse usage failure

    def test_infeasible_synth_exit(self, tmp_path):
        proc = run_cli(
            "synth", "--m", "20", "--p", "20", "--n", "30",
            "--out-dir", str(tmp_path / "x"),
        )
        assert proc.returncode == 8
        assert "category=infeasible" in proc.stderr
