import json
import subprocess
import sys

import numpy as np
import pytest
from _util import child_env, record_rows

import rgsv.core
from rgsv import GmpPair, gaussian_matrix, read_matrix, write_matrix
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
        "--k", "4", "--oversample", "3", "--tol", "1e-12",
        "-o", str(out), "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        cert = json.load(fh)
    assert cert["kind"] == "bound_certificate"
    assert cert["e_script"] >= 0
    eta = GmpPair(read_matrix(g1), read_matrix(g2)).stack_norm2 ** 2
    assert abs(cert["eta"] - eta) <= 1e-12 * eta
    assert "projector_bound[first]" in proc.stderr
    assert "projector_bound[second]" in proc.stderr


@pytest.mark.parametrize("k", ["1", "20"])
def test_bounds_rejects_bad_k_before_writing(pair_files, tmp_path, k):
    # k = 1 is below the minimum; k = 20 plus the oversample exceeds n = 12
    g1, g2 = pair_files
    out = tmp_path / "cert.csv"
    assert main(["bounds", "--g1", str(g1), "--g2", str(g2), "--k", k, "-o", str(out)]) == 5
    assert not out.exists()


def test_bounds_has_no_method_flag(pair_files, capsys):
    # bounds always centres on the direct spectrum and sizes the budget by
    # the randomized solve, so a --method flag would do nothing
    g1, g2 = pair_files
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--g1", str(g1), "--g2", str(g2), "--method", "direct"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bounds_factors_no_tall_matrix_but_its_two_r_only_qrs(tmp_path, monkeypatch):
    m, p, n = 90, 80, 20
    files = tmp_path / "g1.mtx", tmp_path / "g2.csv"
    write_matrix(files[0], gaussian_matrix(m, n, seed=50))
    np.savetxt(files[1], gaussian_matrix(p, n, seed=51), delimiter=",")
    rows = record_rows(monkeypatch, (np.linalg, "svd"), (rgsv.core, "reduced_qr"))
    qr = np.linalg.qr
    qr_calls = []

    def recording_qr(a, mode="reduced"):
        qr_calls.append((np.shape(a)[0], mode))
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    argv = ["bounds", "--g1", str(files[0]), "--g2", str(files[1]), "--k", "4",
            "--seed", "52", "-o", str(tmp_path / "cert.csv")]
    assert main(argv) == 0
    assert sorted(call for call in qr_calls if call[0] > 2 * n) == [(p, "r"), (m, "r")]
    assert rows and max(rows) <= 2 * n
    assert m + p not in rows + [r for r, _ in qr_calls]


class TestErrorExits:
    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,x\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("1,0\n0,1\n")
        proc = run_cli("gsv", "--g1", str(bad), "--g2", str(ok))
        assert proc.returncode == 3
        assert "category=parse" in proc.stderr

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
