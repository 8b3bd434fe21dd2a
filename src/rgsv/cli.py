"""Command-line interface.

Subcommands: gsv (spectrum of a pair), compare (full comparative report),
extract (basis extraction residuals for one matrix), synth (generate and
save a pair with its true spectrum), bounds (error certificates). All
randomness flows from --seed, which defaults to the RGSV_SEED environment
variable and then to 0.

bounds reduces the pair to its triangular factors (R1, R2), centres the
certificate on the exact direct spectrum of (R1, R2) and sizes it by the
perturbation budget between (R1, R2) and the projected pair of the
randomized solve on it; nothing after the two R-only QRs is taller than 2n.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import io
from .analysis import compare
from .bounds import perturbation_bound, projector_bound, quantity_error_bounds
from .engine import (DIRECT, RANDOMIZED, GmpPair, GsvOptions, compute_gsv, projected_pair,
                     triangular_pair)
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
    "recovery": 10,
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
    p.add_argument("--blocksize", type=int, default=100)
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


def _gsv_options(args, method: str | None = None) -> GsvOptions:
    return GsvOptions(extraction=_extraction_config(args), classify_tol=args.classify_tol,
                      method=method or args.method)


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
    pair = triangular_pair(_load_pair(args))
    spec_direct = compute_gsv(pair, _gsv_options(args, DIRECT))
    # --k and --oversample are validated before anything is written
    sides = () if args.k is None else ("first", "second")
    projector = {w: projector_bound(pair, spec_direct, args.k, args.oversample, w) for w in sides}
    pair_proj = projected_pair(pair, _gsv_options(args, RANDOMIZED))
    e_script = perturbation_bound(pair, pair_proj)
    eta = pair.stack_norm2 ** 2
    cert = quantity_error_bounds(spec_direct, e_script, eta=eta)
    io.write_report(cert, args.output, args.format)
    for which, bound in projector.items():
        print(f"projector_bound[{which}] (k={args.k}, "
              f"oversample={args.oversample}): {bound:.6e}", file=sys.stderr)
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
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
