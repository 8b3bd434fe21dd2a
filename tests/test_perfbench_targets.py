import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    # a renamed or moved library function would leave its per-layer
    # benchmark metrics unmeasured; the tracer is imported as it is, and
    # no bytecode is written next to it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        tracing = importlib.import_module("tracing")
        assert tracing.__file__ == str(PERFBENCH / "tracing.py")
        for dotted, _ in tracing.TARGETS:
            owner, attr = tracing._resolve(dotted)
            assert callable(getattr(owner, attr, None)), dotted
    finally:
        sys.modules.pop("tracing", None)


# What one `rgsv bounds` calls of the names the benchmark tracer wraps:
# each per-layer metric of the command is built from one of these spans.
BOUNDS_SPANS = (
    ("rgsv.cli", "perturbation_bound"),
    ("rgsv.cli", "quantity_error_bounds"),
    ("rgsv.engine", "extract_basis"),
    ("rgsv.core", "reduced_qr"),
    ("rgsv.core", "svd"),
    ("rgsv.io", "read_matrix"),
    ("rgsv.io", "write_report"),
)


def test_bounds_enters_every_traced_span(tmp_path, monkeypatch):
    # a reroute that resolves every name but no longer calls one would
    # leave that metric unmeasured
    import rgsv
    from rgsv.cli import main

    files = tmp_path / "g1.mtx", tmp_path / "g2.mtx"
    rgsv.write_matrix(files[0], rgsv.gaussian_matrix(40, 12, seed=60))
    rgsv.write_matrix(files[1], rgsv.gaussian_matrix(30, 12, seed=61))
    calls = {}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    owners = [(importlib.import_module(mod), name) for mod, name in BOUNDS_SPANS]
    owners.append((rgsv.GmpPair, "__post_init__"))
    for owner, name in owners:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), (owner, name)))
    argv = ["bounds", "--g1", str(files[0]), "--g2", str(files[1]), "--seed", "62",
            "-o", str(tmp_path / "cert.json"), "--format", "json"]
    assert main(argv) == 0
    missed = [f"{owner.__name__}.{name}" for owner, name in owners
              if calls.get((owner, name), 0) < 1]
    assert not missed, missed


def test_compare_solves_inside_the_traced_compute_gsv(tmp_path, monkeypatch):
    # the tracer builds engine.* and rangefinder.* from the extract_basis,
    # reduced_qr and svd spans whose parent is rgsv.analysis.compute_gsv,
    # and engine.r/s from that span's spectrum: an in-process rgsv.compare
    # and an `rgsv compare` must each solve inside exactly that span
    import rgsv
    from rgsv.cli import main

    g1, g2 = rgsv.gaussian_matrix(40, 12, seed=63), rgsv.gaussian_matrix(30, 12, seed=64)
    files = tmp_path / "g1.mtx", tmp_path / "g2.mtx"
    rgsv.write_matrix(files[0], g1)
    rgsv.write_matrix(files[1], g2)
    argv = ["compare", "--g1", str(files[0]), "--g2", str(files[1]), "--seed", "65",
            "-o", str(tmp_path / "report.json"), "--format", "json"]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        tr = importlib.import_module("tracing").Tracer()
        with tr.operation("solve") as solve_root:
            rgsv.compare(rgsv.GmpPair(g1, g2),
                         rgsv.GsvOptions(extraction=rgsv.ExtractionConfig(seed=65)))
        with tr.operation("cli") as cli_root:
            assert main(argv) == 0
    finally:
        sys.modules.pop("tracing", None)
    assert not tr.missing
    for root in (solve_root, cli_root):
        (solve,) = [i for i in tr.descendants(root) if tr.spans[i].name == "compute_gsv"]
        assert tr.spans[tr.spans[solve].parent].name == "compare"
        assert isinstance(tr.spans[solve].result, rgsv.GsvSpectrum)
        inside = {tr.spans[i].name for i in tr.spans[solve].children}
        assert {"extract_basis", "reduced_qr", "svd"} <= inside, inside
