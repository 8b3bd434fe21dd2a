import importlib.util
import json
import math
import re
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

    def test_csv_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "gaps.csv"
        f.write_text("1,2\n\n  \t\n3,4\n\n")
        m = read_matrix(f)
        assert m.dtype == np.float64
        assert np.array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("content", ["", "\n \n\n"], ids=["empty", "blank_only"])
    def test_csv_without_rows(self, tmp_path, content):
        f = tmp_path / "none.csv"
        f.write_text(content)
        with pytest.raises(ParseError, match="none.csv: no data rows"):
            read_matrix(f)

    def test_csv_hash_is_not_a_comment(self, tmp_path):
        f = tmp_path / "hash.csv"
        f.write_text("1,2\n3,#4\n")
        with pytest.raises(ParseError, match=r":2:"):
            read_matrix(f)

    def test_csv_bad_cell_after_blank_line_names_its_physical_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2\n\n3,x\n")
        with pytest.raises(ParseError, match=r"bad.csv:3: .*column 2"):
            read_matrix(f)

    def test_csv_accepted_literals(self, tmp_path):
        f = tmp_path / "lit.csv"
        f.write_text(" (1+2j) ,2j,inf\r\nnan,Infinity , -1.5e-3\r\n")
        with pytest.raises(ValidationError, match="non-finite"):
            read_matrix(f)  # every cell parsed; only the non-finite ones are refused
        f.write_text(" (1+2j) ,2j\r\n-1.5e-3 , 4\r\n")
        assert np.array_equal(read_matrix(f), [[1 + 2j, 2j], [-1.5e-3, 4]])

    @pytest.mark.parametrize("cell", ["1+2J", "1_000"])
    def test_csv_rejects_literals_numpy_does_not_parse(self, tmp_path, cell):
        # Python's float() and complex() accept these; numpy's parser does not
        f = tmp_path / "lit.csv"
        f.write_text(f"1,2\n3,{cell}\n")
        with pytest.raises(ParseError, match=r"lit.csv:2: .*column 2"):
            read_matrix(f)

    @pytest.mark.parametrize("content,bad_line,passes", [
        ("1,2\n" * 50 + "\n3,x\n" + "1,2\n" * 50, 52, [51, 1]),
        ("1+2j,0\n3,x\n4,5\n", 2, [1, 2, 1]),
    ], ids=["real", "complex"])
    def test_csv_rejected_file_is_parsed_once_per_field(self, tmp_path, monkeypatch,
                                                       content, bad_line, passes):
        # numpy stops at the line it rejects; a real file takes no complex
        # pass, and only the rejected line is parsed again, alone
        f = tmp_path / "bad.csv"
        f.write_text(content)
        lines_read, loadtxt = [], np.loadtxt

        def counting(lines, *args, **kwargs):
            lines_read.append(0)

            def counted():
                for line in lines:
                    lines_read[-1] += 1
                    yield line

            return loadtxt(counted(), *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        with pytest.raises(ParseError, match=rf"bad.csv:{bad_line}: .*column 2"):
            read_matrix(f)
        assert lines_read == passes

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_csv_savetxt_round_trip_bitwise(self, tmp_path, field):
        m = gaussian_matrix(9, 4, seed=0, field=field)
        f = tmp_path / "m.csv"
        np.savetxt(f, m, fmt="%.17g", delimiter=",")
        back = read_matrix(f)
        assert back.dtype == m.dtype
        assert back.tobytes() == m.tobytes()

    @pytest.mark.parametrize("content", [
        b"\xff\xfe1,2\n",
        b"1,2\n3,\xff\n",
        b"1,2\n" * 4096 + b"3,\xff\n",  # past the chunk that sniffing decodes
    ], ids=["first_line", "second_line", "past_first_chunk"])
    def test_undecodable_file_is_a_parse_error(self, tmp_path, content):
        f = tmp_path / "bytes.csv"
        f.write_bytes(content)
        with pytest.raises(ParseError, match="bytes.csv"):
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


def test_csv_compare_leaves_scipy_io_and_linalg_unloaded(tmp_path):
    # numpy reads the CSV files, and both sides of a 1000/800/200 pair are
    # tall, so their QRs take _flapack's wrappers, loaded by file path
    files = []
    for name, rows, seed in (("g1", 1000, 1), ("g2", 800, 2)):
        files.append(tmp_path / f"{name}.csv")
        np.savetxt(files[-1], gaussian_matrix(rows, 200, seed=seed), fmt="%.17g", delimiter=",")
    code = ("import sys; from rgsv import cli; "
            "code = cli.main(['compare', '--g1', sys.argv[1], '--g2', sys.argv[2], "
            "'-o', sys.argv[3]]); "
            "print(code, 'scipy.io' in sys.modules, 'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, files), str(tmp_path / "r.csv")],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False False"


def test_mtx_bounds_and_compare_load_only_extension_modules(tmp_path):
    # dense Matrix Market files of any size are read by fast_matrix_market's
    # extension module alone, and both sides of a 1000/800/200 pair are
    # tall, so their QRs take _flapack's wrappers: those two modules, each
    # loaded by file path, are the only scipy modules that load; the
    # reports are those of a run whose files are read by scipy.io
    files = []
    for name, rows, seed in (("g1", 1000, 1), ("g2", 800, 2)):
        files.append(tmp_path / f"{name}.mtx")
        write_matrix(files[-1], gaussian_matrix(rows, 200, seed=seed))
    code = ("import sys; from rgsv import cli, core\n"
            "if sys.argv[2] == 'scipy': core._extension = lambda name, attrs: None\n"
            "code = cli.main([sys.argv[1], '--g1', sys.argv[3], '--g2', sys.argv[4], "
            "'-o', sys.argv[5]])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    for command in ("bounds", "compare"):
        loaded, reports = [], []
        for reader in ("fmm", "scipy"):
            out = tmp_path / f"{command}.{reader}.csv"
            proc = subprocess.run([sys.executable, "-c", code, command, reader, *map(str, files),
                                   str(out)], capture_output=True, text=True, env=child_env())
            assert proc.returncode == 0, proc.stderr
            loaded.append(proc.stdout.strip())
            reports.append(out.read_bytes())
        # scipy < 1.12 has no _fmm_core and reads through scipy.io
        if _FAST_MM:
            assert loaded[0] == ("0 ['scipy.io._fast_matrix_market._fmm_core', "
                                 "'scipy.linalg._flapack']")
        assert "'scipy.linalg'" not in loaded[0]
        assert "'scipy.io'" in loaded[1]
        assert reports[0] == reports[1]


def test_tall_mtx_bounds_and_compare_load_no_scipy_package(tmp_path):
    # a 2100/2100/100 pair takes ?geqrt, ?tpqrt and ?tpmqrt from _flapack
    # and is read by _fmm_core, each loaded by file path; the reports are
    # those of a process that imported scipy.io and scipy.linalg first
    files = [tmp_path / "g1.mtx", tmp_path / "g2.mtx"]
    pair = rgsv.synth_gmp(rgsv.SynthSpec(2100, 2100, 100, 0.6, seed=5, field="real")).pair
    write_matrix(files[0], pair.g1)
    write_matrix(files[1], pair.g2)
    code = ("import sys\n"
            "if sys.argv[2] == 'imported': import scipy.io, scipy.linalg\n"
            "from rgsv import cli\n"
            "code = cli.main([sys.argv[1], '--g1', sys.argv[3], '--g2', sys.argv[4], "
            "'-o', sys.argv[5]])\n"
            "print(code, [m for m in ('scipy.io', 'scipy.linalg') if m in sys.modules])")
    for command in ("bounds", "compare"):
        loaded, reports = [], []
        for mode in ("direct", "imported"):
            out = tmp_path / f"{command}.{mode}.csv"
            proc = subprocess.run([sys.executable, "-c", code, command, mode, *map(str, files),
                                   str(out)], capture_output=True, text=True, env=child_env())
            assert proc.returncode == 0, proc.stderr
            loaded.append(proc.stdout.strip())
            reports.append(out.read_bytes())
        # scipy < 1.12 has no _fmm_core and reads through scipy.io
        assert loaded[0] == ("0 []" if _FAST_MM else "0 ['scipy.io']")
        assert loaded[1] == "0 ['scipy.io', 'scipy.linalg']"
        assert reports[0] == reports[1]


_REAL = "%%MatrixMarket matrix array real general\n"
_COMPLEX = "%%MatrixMarket matrix array complex general\n"
# scipy.io reads Matrix Market files by fast_matrix_market from scipy 1.12
_FAST_MM = importlib.util.find_spec("scipy.io._fast_matrix_market") is not None


# the reader of a dense general file: scipy.io where _fmm_core is absent
_FMM = "fmm" if _FAST_MM else "scipy"


@pytest.fixture
def mm_readers(monkeypatch):
    """The reader each Matrix Market read of read_matrix took, in order:
    "fmm" when _read_fmm read it or raised, "scipy" when scipy.io's mmread
    did."""
    import scipy.io

    taken = []

    def spy(read, name):
        def reader(path):
            taken.append(name)
            mat = read(path)
            if mat is None:
                taken.pop()
            return mat
        return reader

    monkeypatch.setattr(rgsv.io, "_read_fmm", spy(rgsv.io._read_fmm, "fmm"))
    monkeypatch.setattr(scipy.io, "mmread", spy(scipy.io.mmread, "scipy"))
    return taken


def _outcome(path):
    """read_matrix's array, or the type and message of what it raised."""
    try:
        return read_matrix(path)
    except Exception as exc:
        return type(exc), str(exc)


def _read_all(path, monkeypatch):
    """read_matrix's outcome, then its outcome with scipy.io reading the
    file (the extension loader patched off)."""
    got = [_outcome(path)]
    with monkeypatch.context() as m:
        m.setattr(rgsv.core, "_extension", lambda name, attrs: None)
        got.append(_outcome(path))
    return got


def _same_array(a, b):
    return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
            and a.shape == b.shape and a.flags.c_contiguous and b.flags.c_contiguous
            and a.tobytes() == b.tobytes())


class TestDenseMatrixMarketReaders:
    """read_matrix reads a dense real or complex general Matrix Market
    file of any size with fast_matrix_market's extension module, bitwise
    as scipy.io reads it, and any other file with scipy.io."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_readers_agree_bitwise_on_written_files(self, tmp_path, monkeypatch, mm_readers,
                                                    field):
        big, normal = np.finfo(np.float64).max, np.finfo(np.float64).tiny
        extremes = [5e-324, -5e-324, normal, -normal, 0.1, -0.1, 1 / 3, big, -big, -0.0]
        m = np.vstack([np.reshape(extremes, (2, 5)), gaussian_matrix(30, 5, seed=3)])
        if field == "complex":
            z = np.empty(m.shape, np.complex128)
            z.real, z.imag = m, m[::-1]
            m = z
        f = tmp_path / "m.mtx"
        write_matrix(f, m)
        got, want = _read_all(f, monkeypatch)
        assert mm_readers == [_FMM, "scipy"]
        assert _same_array(got, want) and got.dtype == m.dtype
        parts, read = m.view(np.float64), got.view(np.float64)
        nonzero = parts != 0
        assert np.array_equal(read[nonzero].view(np.uint64), parts[nonzero].view(np.uint64))
        assert not np.signbit(read[~nonzero]).any()  # -0.0 reads as +0.0

    @pytest.mark.parametrize("text", [
        _REAL + "%comment\n%\n2 3\n1\n.5\n5.\n-0\n-0.0\n-1e-400\n",
        _REAL + "  2\t3  \n\n 1 \n\t2\n\n3\n  \n1E+5\n1e-05\n"
        "0.1000000000000000055511151231257827021181583404541015625",
        _COMPLEX + "2 1\n1 -0\n-0.0\t  2.5e-324\n",
    ], ids=["real", "whitespace", "complex"])
    def test_readers_agree_on_odd_layouts(self, tmp_path, monkeypatch, mm_readers, text):
        f = tmp_path / "m.mtx"
        f.write_bytes(text.encode())
        got, want = _read_all(f, monkeypatch)
        assert mm_readers == [_FMM, "scipy"]
        assert _same_array(got, want)
        parts = got.view(np.float64)
        assert not np.signbit(parts[parts == 0]).any()  # -0 and -1e-400 read as +0.0

    @pytest.mark.parametrize("text,outcome", [
        ("%%MatrixMarket matrix coordinate real general\n3 2 2\n1 1 5.0\n3 2 -2.5\n", np.ndarray),
        ("%%MatrixMarket matrix array integer general\n2 1\n1\n2\n", np.ndarray),
        ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n", np.ndarray),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n", np.ndarray),
        ("%%MatrixMarket matrix array complex hermitian\n2 2\n1 0\n2 1\n3 0\n", np.ndarray),
        (_REAL + "2 1\r\n1\r\n2\r\n", np.ndarray),
        (_REAL + "%a\rb\n2 1\n1\n2\n", np.ndarray),
        (_REAL + "2 1\n1\r2\n", ParseError),
        (_REAL + "2 1\n1\n", ParseError),
        (_REAL + "2 1\n1\n2\n3\n", ParseError),
        (_REAL + "2 1\n1 2\n", ParseError),
        (_COMPLEX + "2 1\n1\n2 3 4\n", ParseError),
        (_REAL + "2 1\n1\n%c\n2\n", ParseError),
        (_REAL + "2 1\n1\nx\n", ParseError),
        (_REAL + "2 1\n+1\n2\n", ParseError),
        (_REAL + "2 1\n1\nnan\n", ValidationError),
        (_REAL + "2 1\n-inf\n1\n", ValidationError),
        (_REAL + "2 1\n1\n1e400\n", ValidationError),
    ], ids=["coordinate", "integer", "pattern", "symmetric", "hermitian", "crlf",
            "cr_in_comment", "cr_in_body", "too_few", "too_many", "two_on_a_line",
            "complex_widths", "comment_in_body", "bad_token", "leading_plus", "nan", "inf",
            "overflow"])
    def test_other_files_read_or_fail_as_scipy_io(self, tmp_path, monkeypatch, mm_readers,
                                                  text, outcome):
        f = tmp_path / "m.mtx"
        f.write_bytes(text.encode())
        got, want = _read_all(f, monkeypatch)
        assert mm_readers in (["scipy"] * 2, [_FMM, "scipy"])
        if isinstance(got, np.ndarray):
            assert _same_array(got, want)
        else:
            assert got == want
        if _FAST_MM:  # older scipy.io parses in Python: it takes "+1" and "%" lines in a body
            assert (type(got) if isinstance(got, np.ndarray) else got[0]) is outcome

    @pytest.mark.parametrize("rows,cols", [(2047, 1), (2048, 1), (512, 512), (65, 4033)],
                             ids=["rows_2047", "rows_2048", "entries_2^18", "entries_2^18+1"])
    def test_gate_edges(self, tmp_path, mm_readers, rows, cols):
        # whatever its rows or entries, a dense general file has one reader
        f = tmp_path / "m.mtx"
        f.write_text(_REAL + f"{rows} {cols}\n" + "1\n" * (rows * cols))
        assert np.array_equal(read_matrix(f), np.ones((rows, cols)))
        assert mm_readers == [_FMM]


def _exits_as_parse_error(f):
    # in a child, where a crash fails the test on the exit code
    argv = [sys.executable, "-m", "rgsv", "gsv", "--g1", str(f), "--g2", str(f)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env())
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: category=parse: {f}: invalid Matrix Market file: ")


@pytest.mark.parametrize("text", [
    _REAL + "0 1\n",
    _REAL + "0 0\n",
    _REAL + "1 0\n",
    "%%MatrixMarket matrix array integer general\n0 1\n",
    "%%MatrixMarket matrix coordinate real general\n0 1 0\n",
], ids=["zero_rows", "zero_both", "zero_cols", "zero_rows_integer", "zero_coordinate"])
def test_size_lines_with_a_zero_exit_as_parse_errors(tmp_path, text):
    # a file of no entries, as an empty CSV file, on every reader and scipy;
    # fast_matrix_market divides by a zero array row count (SIGFPE)
    f = tmp_path / "m.mtx"
    f.write_bytes(text.encode())
    _exits_as_parse_error(f)


@pytest.mark.skipif(not _FAST_MM, reason="fast_matrix_market's extension module is scipy >= 1.12's")
class TestFastMatrixMarketGuards:
    """Files fast_matrix_market crashes on or misreads raise ParseError
    before it reads their body, in a few rows and in over 2048."""

    @staticmethod
    def _file(tmp_path, rows, value):
        # ``value`` on the middle line of a rows x 1 body of ones
        lines = ["1"] * rows
        lines[rows // 2] = value
        f = tmp_path / "m.mtx"
        f.write_bytes((_REAL + f"{rows} 1\n" + "\n".join(lines) + "\n").encode())
        return f

    @pytest.mark.parametrize("text", [
        _REAL + "2 1\n1\0\n2\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 5\0\n",
        None,
    ], ids=["nul", "nul_coordinate", "nul_tall"])
    def test_nul_bytes_exit_as_parse_errors(self, tmp_path, text):
        # fast_matrix_market reads past a NUL byte (SIGSEGV)
        if text is None:
            f = self._file(tmp_path, 2100, "1\0")
        else:
            f = tmp_path / "m.mtx"
            f.write_bytes(text.encode())
        _exits_as_parse_error(f)

    @pytest.mark.parametrize("rows", [3, 2100], ids=["small", "tall"])
    @pytest.mark.parametrize("token", ["1d3", "0x1p3", "1_0", "1!"])
    def test_stray_bytes_are_parse_errors(self, tmp_path, rows, token):
        # fast_matrix_market reads the leading number, 1.0 or 0.0, and drops the rest
        f = self._file(tmp_path, rows, token)
        with pytest.raises(ParseError, match=re.escape(str(f))):
            read_matrix(f)

    @pytest.mark.parametrize("token", ["nan", "NaN", "-inf", "Infinity"])
    def test_non_finite_literals_stay_validation_errors(self, tmp_path, token):
        with pytest.raises(ValidationError, match="non-finite"):
            read_matrix(self._file(tmp_path, 2100, token))


@pytest.mark.parametrize("content", ["", "\n \n"], ids=["empty", "blank_only"])
def test_cli_rowless_csv_exits_parse_without_warning(tmp_path, content):
    f = tmp_path / "none.csv"
    f.write_text(content)
    argv = [sys.executable, "-m", "rgsv", "gsv", "--g1", str(f), "--g2", str(f)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env())
    assert proc.returncode == 3
    assert proc.stderr == f"error: category=parse: {f}: no data rows\n"


class TestWriteMatrix:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bitwise_round_trip(self, tmp_path, field):
        m = gaussian_matrix(7, 5, seed=0, field=field)
        f = tmp_path / "m.mtx"
        write_matrix(f, m)
        back = read_matrix(f)
        assert back.dtype == m.dtype
        assert (back == m).all()


    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_extremes_round_trip_bitwise_but_negative_zero(self, tmp_path, field):
        big, normal = np.finfo(np.float64).max, np.finfo(np.float64).tiny
        m = np.array([[5e-324, -5e-324, normal, 0.1], [big, -big, 1 / 3, -0.0]])
        if field == "complex":
            m = m + 1j * m[::-1]
        f = tmp_path / "m.mtx"
        write_matrix(f, m)
        back = read_matrix(f)
        parts, back_parts = m.view(np.float64), back.view(np.float64)
        nonzero = parts != 0
        assert back.dtype == m.dtype
        assert np.array_equal(back_parts[nonzero].view(np.uint64), parts[nonzero].view(np.uint64))
        # -0.0 may read back as 0.0
        assert np.all(back_parts[~nonzero] == 0)


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
