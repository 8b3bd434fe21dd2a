"""Command-line interface.

Subcommands: gsv (spectrum of a pair), compare (full comparative report),
extract (basis extraction residuals for one matrix), synth (generate and
save a pair with its true spectrum), bounds (error certificates). All
randomness flows from --seed, which defaults to the RGSV_SEED environment
variable and then to 0.

gsv and compare write the spectrum of the one solve, ``engine.run``, via
``compute_gsv``; bounds runs that solve with the same flags, centres the
certificate on the spectrum it returns and sizes it by that run's
perturbation budget, read off its residuals and R factor: no stack of the
pair is factored. --k adds a projector bound per side, from the run's
spectrum, which is off by at most the budget, and from eta = ``stack_norm2``
squared, which costs one SVD of the (m + p) x n stack. A side that
--max-cols stops unconverged is named in a warning on stderr. Each warning
is printed there as one ``warning: <message>`` line, and those rgsv raises
are printed whatever the Python warning filters say.

Exit codes: 0 on success; 2 for a usage error; 3-9 for a ``GsvError``,
one per category (``EXIT_CODES``: 3 parse, 4 dimension, 5 validation,
6 rank, 7 numerical, 8 infeasible, 9 degenerate); 11 for an I/O error;
1 for any other error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from . import io
from .analysis import compare
from .bounds import perturbation_bound, projector_bound, quantity_error_bounds
from .engine import DIRECT, RANDOMIZED, GmpPair, GsvOptions, compute_gsv, run
from .errors import GsvError, ValidationError
from .rangefinder import ExtractionConfig, extract_basis
from .synthetic import SynthSpec, synth_gmp

EXIT_CODES = {
    "parse": 3,
    "dimension": 4,
    "validation": 5,
    "rank": 6,
    "numerical": 7,
    "infeasible": 8,
    "degenerate": 9,
}


def _default_seed() -> int:
    raw = os.environ.get("RGSV_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"RGSV_SEED must be an integer, got {raw!r}") from None


def _add_pair_inputs(p: argparse.ArgumentParser):
    p.add_argument("--g1", required=True, help="first matrix file (Matrix Market or CSV)")
    p.add_argument("--g2", required=True, help="second matrix file")


def _add_extraction_options(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=float, default=None,
                   help="absolute basis-extraction residual target (default 1e-10*||G||_F)")
    p.add_argument("--blocksize", type=int, default=100,
                   help="largest sketch block width; the first block is min(32, this) "
                        "wide and each later one is sized from the residual")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (default: RGSV_SEED env var, then 0)")
    p.add_argument("--max-cols", type=int, default=None)
    p.add_argument("--trim-tol", type=float, default=1e-12)


def _add_gsv_options(p: argparse.ArgumentParser, method: bool = True):
    if method:
        p.add_argument("--method", choices=[RANDOMIZED, DIRECT], default=RANDOMIZED)
    _add_extraction_options(p)
    p.add_argument("--classify-tol", type=float, default=1e-10)


def _add_output(p: argparse.ArgumentParser):
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _extraction_config(args) -> ExtractionConfig:
    return ExtractionConfig(
        tol=args.tol,
        blocksize=args.blocksize,
        seed=args.seed if args.seed is not None else _default_seed(),
        max_cols=args.max_cols,
        trim_tol=args.trim_tol,
    )


def _gsv_options(args) -> GsvOptions:
    return GsvOptions(extraction=_extraction_config(args), classify_tol=args.classify_tol,
                      method=args.method)


def _load_pair(args) -> GmpPair:
    return GmpPair(io.read_matrix(args.g1), io.read_matrix(args.g2))


def _cmd_gsv(args) -> int:
    spec = compute_gsv(_load_pair(args), _gsv_options(args))
    io.write_report(spec, args.output, args.format)
    return 0


def _cmd_compare(args) -> int:
    report = compare(_load_pair(args), _gsv_options(args))
    io.write_report(report, args.output, args.format)
    return 0


def _cmd_extract(args) -> int:
    result = extract_basis(io.read_matrix(args.input), _extraction_config(args))
    io.write_report(result, args.output, args.format)
    return 0


def _cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    spec = SynthSpec(
        m=args.m, p=args.p, n=args.n,
        rank_frac=args.rank_frac, seed=seed, field=args.field,
    )
    result = synth_gmp(spec)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    io.write_matrix(outdir / "g1.mtx", result.pair.g1)
    io.write_matrix(outdir / "g2.mtx", result.pair.g2)
    ext = "json" if args.format == "json" else "csv"
    io.write_report(result.true_spectrum, outdir / f"truth.{ext}", args.format)
    print(
        f"wrote {outdir}/g1.mtx {outdir}/g2.mtx {outdir}/truth.{ext} "
        f"(condition_r={result.condition_r:.6g})",
        file=sys.stderr,
    )
    return 0


def _cmd_bounds(args) -> int:
    if args.oversample < 2:  # projector_bound's rule, also when --k is absent
        raise ValidationError(f"oversample must be >= 2, got {args.oversample}")
    pair = _load_pair(args)
    solve = run(pair, _gsv_options(args))
    # --k is checked before anything is written; a side too small for it has no bound
    projector, unfit = {}, []
    for which in () if args.k is None else ("first", "second"):
        try:
            bound = projector_bound(pair, solve.spectrum, args.k, args.oversample, which)
            projector[which] = f"{bound:.6e}"
        except ValidationError as exc:
            projector[which] = f"not applicable: {exc}"
            unfit.append(exc)
    if len(unfit) == 2:
        raise unfit[0]
    e_script = perturbation_bound(pair, solve)
    eta = float(solve.r_singular_values[0]) ** 2
    cert = quantity_error_bounds(solve.spectrum, e_script, eta=eta)
    io.write_report(cert, args.output, args.format)
    for which, bound in projector.items():
        print(f"projector_bound[{which}] (k={args.k}, "
              f"oversample={args.oversample}): {bound}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgsv",
        description="Generalized singular values of a matrix pair via "
                    "randomized basis extraction, with comparative-analysis "
                    "quantities and certified error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gsv", help="compute the GSV spectrum of a pair")
    _add_pair_inputs(p)
    _add_gsv_options(p)
    _add_output(p)
    p.set_defaults(func=_cmd_gsv)

    p = sub.add_parser("compare", help="full comparative-analysis report")
    _add_pair_inputs(p)
    _add_gsv_options(p)
    _add_output(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("extract", help="basis extraction residual history")
    p.add_argument("--input", required=True, help="matrix file")
    _add_extraction_options(p)
    _add_output(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("synth", help="generate a synthetic pair with known spectrum")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank-frac", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--field", choices=["real", "complex"], default="complex")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bounds", help="error certificates for a pair")
    _add_pair_inputs(p)
    p.add_argument("--k", type=int, default=None, help="sketch target rank")
    p.add_argument("--oversample", type=int, default=5)
    _add_gsv_options(p, method=False)
    _add_output(p)
    p.set_defaults(func=_cmd_bounds, method=RANDOMIZED)

    return parser


def _show_warning(message, *_args, **_kwargs):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # a warning is one stderr line, and rgsv's are shown whatever the filters say
        warnings.filterwarnings("always", category=UserWarning, module=r"rgsv\.")
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except GsvError as exc:
            print(f"error: category={exc.category}: {exc}", file=sys.stderr)
            return EXIT_CODES.get(exc.category, 1)
        except OSError as exc:
            print(f"error: category=io: {exc}", file=sys.stderr)
            return 11


if __name__ == "__main__":
    sys.exit(main())
