import json
import math
import subprocess
import sys

import numpy as np
import pytest
from _util import child_env, random_pair

import rgsv
from rgsv import (
    GmpPair,
    GsvOptions,
    ParseError,
    ValidationError,
    compare,
    compute_gsv,
    gaussian_matrix,
    quantity_error_bounds,
    read_matrix,
    report_to_dict,
    write_matrix,
    write_report,
)
from rgsv.rangefinder import ExtractionConfig, extract_basis


class TestReadMatrix:
    def test_matrix_market_dense(self, tmp_path):
        f = tmp_path / "eye.mtx"
        f.write_text(
            "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n"
        )
        assert np.array_equal(read_matrix(f), np.eye(2))

    def test_matrix_market_coordinate_densified(self, tmp_path):
        f = tmp_path / "coo.mtx"
        f.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 2 2\n1 1 5.0\n3 2 -2.5\n"
        )
        expected = np.zeros((3, 2))
        expected[0, 0] = 5.0
        expected[2, 1] = -2.5
        assert np.array_equal(read_matrix(f), expected)

    def test_csv_single_row(self, tmp_path):
        f = tmp_path / "row.csv"
        f.write_text("3,4\n")
        m = read_matrix(f)
        assert m.shape == (1, 2)
        assert np.array_equal(m, [[3.0, 4.0]])

    def test_csv_complex_cells(self, tmp_path):
        f = tmp_path / "z.csv"
        f.write_text("1+2j,0\n0,3-1j\n")
        m = read_matrix(f)
        assert m.dtype == np.complex128
        assert m[0, 0] == 1 + 2j

    def test_csv_parse_error_carries_line_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match=r":2:"):
            read_matrix(f)

    def test_csv_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match=r":2:"):
            read_matrix(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_matrix(tmp_path / "absent.mtx")

    def test_malformed_matrix_market(self, tmp_path):
        f = tmp_path / "bad.mtx"
        f.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n")
        with pytest.raises(ParseError):
            read_matrix(f)


def test_csv_read_leaves_scipy_io_unloaded(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n3,4\n")
    code = ("import sys, rgsv; rgsv.read_matrix(sys.argv[1]); "
            "print('scipy.io' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(f)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestWriteMatrix:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bitwise_round_trip(self, tmp_path, field):
        m = gaussian_matrix(7, 5, seed=0, field=field)
        f = tmp_path / "m.mtx"
        write_matrix(f, m)
        back = read_matrix(f)
        assert back.dtype == m.dtype
        assert (back == m).all()


class TestWriteReport:
    def test_separated_pair_theta_full_precision(self, tmp_path):
        pair = GmpPair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        rep = compare(pair, GsvOptions(method="direct"))
        f = tmp_path / "rep.csv"
        write_report(rep, f, "csv")
        lines = f.read_text().splitlines()
        header = lines[0].split(",")
        row1 = lines[1].split(",")
        theta = float(row1[header.index("theta")])
        assert theta == math.pi / 4  # 17 significant digits round-trip exactly

    def test_json_round_trip_equals_report(self, tmp_path):
        pair = random_pair(12, 10, 7, seed=1)
        rep = compare(pair, GsvOptions(method="direct"))
        f = tmp_path / "rep.json"
        write_report(rep, f, "json")
        with open(f) as fh:
            loaded = json.load(fh)
        assert loaded["alphas"] == [float(v) for v in rep.spectrum.alphas]
        assert loaded["theta"] == [float(v) for v in rep.theta]
        assert loaded["p1"] == [float(v) for v in rep.p1]
        assert loaded["d1"] == rep.d1
        assert loaded["r"] == rep.spectrum.r
        assert loaded["meta"]["method"] == "direct"

    def test_json_serializes_infinity_sentinel(self, tmp_path):
        pair = GmpPair(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        rep = compare(pair, GsvOptions(method="direct"))
        f = tmp_path / "rep.json"
        write_report(rep, f, "json")
        with open(f) as fh:
            loaded = json.load(fh)
        assert loaded["rho"][0] == math.inf

    def test_spectrum_report(self, tmp_path):
        pair = random_pair(10, 9, 6, seed=2)
        spec = compute_gsv(pair, GsvOptions(method="direct"))
        f = tmp_path / "spec.csv"
        write_report(spec, f, "csv")
        lines = f.read_text().splitlines()
        assert lines[0] == "index,alpha,beta"
        assert len(lines) == 1 + 6 + 2  # header, rows, r and s scalars

    def test_certificate_report(self, tmp_path):
        pair = random_pair(10, 9, 6, seed=3)
        spec = compute_gsv(pair, GsvOptions(method="direct"))
        cert = quantity_error_bounds(spec, 1e-6, eta=4.2)
        for fmt, name in (("csv", "c.csv"), ("json", "c.json")):
            write_report(cert, tmp_path / name, fmt)
        with open(tmp_path / "c.json") as fh:
            loaded = json.load(fh)
        assert loaded["eta"] == 4.2
        assert loaded["e_script"] == 1e-6

    def test_basis_result_report(self, tmp_path):
        g = gaussian_matrix(20, 10, seed=4)
        res = extract_basis(g, ExtractionConfig(tol=1e-300, blocksize=4, seed=5))
        f = tmp_path / "basis.json"
        write_report(res, f, "json")
        with open(f) as fh:
            loaded = json.load(fh)
        assert loaded["columns"] == res.q.shape[1]
        assert loaded["residual_history"] == res.residual_history

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_report(object(), tmp_path / "x.csv", "csv")
        with pytest.raises(ValidationError):
            write_report([], tmp_path / "x.csv", "csv")
        with pytest.raises(ValidationError):
            write_report([], tmp_path / "x.csv", "yaml")


def test_unserializable_report_leaves_target_intact(tmp_path):
    f = tmp_path / "y.csv"
    f.write_text("old contents")
    with pytest.raises(ValidationError):
        write_report([], f, "csv")
    assert f.read_text() == "old contents"


def test_report_to_dict_kinds():
    pair = random_pair(8, 7, 5, seed=6)
    spec = compute_gsv(pair, GsvOptions(method="direct"))
    assert report_to_dict(spec)["kind"] == "spectrum"
    assert report_to_dict(compare(pair, GsvOptions(method="direct")))["kind"] == "comparative_report"


def _direct_spectrum():
    return compute_gsv(random_pair(10, 9, 6, seed=2), GsvOptions(method="direct"))


def _layout_case(kind):
    """A report of the given kind and its number of per-index rows."""
    if kind == "spectrum":
        spec = _direct_spectrum()
        return spec, spec.n
    if kind == "comparative_report":
        rep = compare(random_pair(10, 9, 6, seed=2), GsvOptions(method="direct"))
        return rep, rep.spectrum.n
    if kind == "bound_certificate":
        cert = quantity_error_bounds(_direct_spectrum(), 1e-6, eta=4.2)
        return cert, cert.p1_bounds.size
    res = extract_basis(gaussian_matrix(20, 10, seed=4),
                        ExtractionConfig(tol=1e-300, blocksize=4, seed=5))
    return res, len(res.residual_history)


@pytest.mark.parametrize("kind,header,first_index,csv_scalars,json_keys", [
    ("spectrum", "index,alpha,beta", "1", ["r", "s"],
     {"alphas", "betas", "r", "s", "n"}),
    ("comparative_report", "index,alpha,beta,rho,theta,p1,p2", "1",
     ["d1", "d2", "r", "s", "seed", "tol"],
     {"alphas", "betas", "rho", "theta", "p1", "p2", "d1", "d2", "r", "s", "n", "meta"}),
    ("bound_certificate", "index,p1_bound,p2_bound", "1",
     ["eta", "e_script", "theta_bound", "d1_bound", "d2_bound", "vacuous"],
     {"eta", "e_script", "theta_bound", "p1_bounds", "p2_bounds",
      "d1_bound", "d2_bound", "vacuous"}),
    ("basis_result", "iteration,residual", "0", ["columns", "converged", "iterations"],
     {"columns", "converged", "iterations", "residual_history", "block_widths"}),
])
def test_report_layout(tmp_path, kind, header, first_index, csv_scalars, json_keys):
    report, rows = _layout_case(kind)
    write_report(report, tmp_path / "r.csv", "csv")
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == header
    assert lines[1].split(",")[0] == first_index
    assert [line.split(",")[0] for line in lines[1 + rows:]] == csv_scalars
    write_report(report, tmp_path / "r.json", "json")
    with open(tmp_path / "r.json") as fh:
        loaded = json.load(fh)
    assert loaded["kind"] == kind
    assert set(loaded) == json_keys | {"kind"}


def test_public_names_resolve_once():
    assert len(rgsv.__all__) == len(set(rgsv.__all__))
    for name in rgsv.__all__:
        assert getattr(rgsv, name) is not None
