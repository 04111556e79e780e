"""Command-line interface: JSON matrices in, JSON reports out.

Exit codes: 0 on success, 1 on I/O or precondition errors (including
bad flags and inputs the library refuses to certify), 2 when a fuzz
campaign found failures.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .core import DEFAULT_TOL, SvdConvergenceError, Tolerance
from .harness import FuzzConfig, FuzzSuite, fuzz, generate_regular
from .isometry import (CONORM_UNDEFINED, SPECIAL_KINDS, classify, generate_special,
                       normal_mph_check)
from .matrix_io import dumps, load_matrix, matrix_to_dict, save_matrix
from .mp_hermitian import (
    generate_mp_hermitian,
    mph_decompose,
    mph_subspace_check,
)
from .pinv import PenroseResidualError, pinv
from .reverse_order import full_report

__all__ = ["main", "entry"]


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # The wire contract reserves exit 2 for fuzz findings, so flag
    # errors must leave through exit 1 instead of argparse's default.
    def error(self, message):
        raise _CliError(message)


def _tolerance(args) -> Tolerance:
    return Tolerance(rank_tol_factor=args.rank_tol_factor, eq_tol=args.tol)


def _add_tol_flags(p):
    p.add_argument("--tol", type=float, default=DEFAULT_TOL.eq_tol,
                   help="relative equality threshold (default 1e-9)")
    p.add_argument("--rank-tol-factor", type=float, default=1.0,
                   help="scale factor on the rank cutoff (default 1.0)")


def _emit(obj):
    print(dumps(obj))


def _cmd_pinv(args):
    tol = _tolerance(args)
    result = pinv(load_matrix(args.infile), tol)
    if args.out:
        save_matrix(result.pinv, args.out)
    _emit(result.as_dict())
    return 0


def _cmd_rol(args):
    tol = _tolerance(args)
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    _emit(full_report(a, b, tol).as_dict())
    return 0


def _cmd_classify(args):
    tol = _tolerance(args)
    a = load_matrix(args.infile)
    out = classify(a, tol).as_dict()
    if a.shape[0] == a.shape[1]:
        out["subspace_check"] = mph_subspace_check(a, tol).as_dict()
        out["normal_mph_check"] = normal_mph_check(a, tol).as_dict()
    else:
        out["subspace_check"] = None
        out["normal_mph_check"] = None
    _emit(out)
    return 0


def _cmd_decompose(args):
    tol = _tolerance(args)
    _emit(mph_decompose(load_matrix(args.infile), tol).as_dict())
    return 0


def _cmd_conorm(args):
    tol = _tolerance(args)
    a = load_matrix(args.infile)
    report = classify(a, tol)
    if report.conorm is None:
        raise ValueError(CONORM_UNDEFINED)
    _emit({"conorm": report.conorm, "op_norm": report.op_norm,
           "pinv_norm": report.pinv_norm})
    return 0


def _cmd_fuzz(args):
    tol = _tolerance(args)
    config = FuzzConfig(
        suite=args.suite,
        trials=args.trials,
        max_dim=args.max_dim,
        seed=args.seed,
        tolerance=tol,
    )
    report = fuzz(config)
    _emit(report.as_dict())
    return 2 if report.failures else 0


def _parse_inertia(text):
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 3:
        raise _CliError("inertia must be three comma-separated integers")
    return tuple(parts)


def _cmd_gen(args):
    if args.kind == "regular":
        rows = args.dim if args.rows is None else args.rows
        cols = args.dim if args.cols is None else args.cols
        m = generate_regular(
            rows,
            cols,
            args.rank if args.rank is not None else min(rows, cols),
            sv_low=args.sv_low,
            sv_high=args.sv_high,
            seed=args.seed,
        )
    elif args.kind == "mph":
        if args.rank is None:
            raise _CliError("gen --kind mph needs --rank")
        m = generate_mp_hermitian(args.dim, args.rank, args.seed)
    else:
        m = generate_special(
            args.kind, args.dim, args.seed,
            rank=args.rank,
            inertia=_parse_inertia(args.inertia) if args.inertia else None,
            singular_values=(
                [float(v) for v in args.singular_values.split(",")]
                if args.singular_values else None
            ),
            rows=args.rows,
        )
    if args.out:
        save_matrix(m, args.out)
    else:
        _emit(matrix_to_dict(m))
    return 0


# Parsing leaves no state in the parser (each call gets a fresh
# namespace), so one parser serves every call in the process.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mpinv",
        description="Pseudoinverse identities on complex matrices: "
        "compute, classify, decompose, and fuzz-verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv", help="Moore-Penrose inverse with Penrose residuals")
    p.add_argument("--in", dest="infile", required=True, help="matrix JSON file")
    p.add_argument("--out", help="write the pseudoinverse matrix JSON here")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_pinv)

    p = sub.add_parser("rol", help="reverse-order-law condition catalog for a pair")
    p.add_argument("--a", required=True, help="left factor matrix JSON")
    p.add_argument("--b", required=True, help="right factor matrix JSON")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_rol)

    for name, help_text, func in (
        ("classify", "structural classification of one matrix", _cmd_classify),
        ("decompose", "null/range/involution split of an MPH matrix", _cmd_decompose),
        ("conorm", "conorm, operator norm, and pseudoinverse norm", _cmd_conorm),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", required=True)
        _add_tol_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("fuzz", help="run a property-fuzzing campaign")
    p.add_argument("--suite", required=True, choices=[s.value for s in FuzzSuite])
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("gen", help="write a fixture matrix")
    p.add_argument("--kind", required=True, choices=("regular", "mph") + SPECIAL_KINDS)
    p.add_argument("--dim", type=int, default=4, help="square dimension n")
    p.add_argument("--rows", type=int, help="row count (regular/prescribed kinds)")
    p.add_argument("--cols", type=int, help="column count (regular kind)")
    p.add_argument("--rank", type=int, help="rank for regular/mph/partial_isometry")
    p.add_argument("--sv-low", type=float, default=0.5)
    p.add_argument("--sv-high", type=float, default=2.0)
    p.add_argument("--inertia", help="p,m,z counts for hermitian_partial_isometry")
    p.add_argument("--singular-values", help="comma-separated values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output matrix JSON file (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        # Overflow and underflow make residuals fail closed, so numpy's
        # warnings would only add lines to a one-line refusal.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (_CliError, ValueError, OSError,
            PenroseResidualError, SvdConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
