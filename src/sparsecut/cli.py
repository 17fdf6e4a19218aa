"""Command-line front end.

Exit codes: 0 ok, 2 parse error, 3 convergence failure, 4 property
violation, 5 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (ConvergenceError, InputError, ParseError,
                     PropertyViolationError, RoundingError, SparseCutError)
from .generators import FAMILIES, generate
from .graphs import format_instance, read_instance
from .report import (DEFAULT_ORACLE_MAX, audit_configuration, gram_from_text,
                     gram_to_text, run_pipeline)
from .sdp import SolverOptions, extract_vectors

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_PROPERTY = 4
EXIT_USAGE = 5


class UsageError(Exception):
    """Usage failure routed to exit code 5."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsecut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve, round, audit, and report on an instance")
    run.add_argument("instance", help="instance file in the text format")
    run.add_argument("--oracle-max", type=int, default=DEFAULT_ORACLE_MAX,
                     help="run the exact oracle when n is at most this (default 16)")
    run.add_argument("--feas-tol", type=float, default=SolverOptions.feas_tol)
    run.add_argument("--obj-tol", type=float, default=SolverOptions.obj_tol)
    run.add_argument("--max-outer", type=int, default=SolverOptions.max_outer)
    run.add_argument("--report", metavar="PATH", help="write the JSON report here")
    run.add_argument("--dump-gram", metavar="PATH",
                     help="write the solved Gram matrix as dense text")

    gen = sub.add_parser("generate", help="write a deterministic random instance")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("n", type=int)
    gen.add_argument("seed", type=int)
    gen.add_argument("-o", "--output", metavar="PATH", help="default: stdout")

    audit = sub.add_parser("audit", help="re-run property audits on an external Gram matrix")
    audit.add_argument("gram", help="dense row-major matrix text file")
    audit.add_argument("instance", help="instance file the matrix solves")
    return parser


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError:
        raise UsageError(f"cannot write {path}")


def _cmd_run(args) -> int:
    g = read_instance(args.instance)
    opts = SolverOptions(feas_tol=args.feas_tol, obj_tol=args.obj_tol,
                         max_outer=args.max_outer)
    report = run_pipeline(g, opts, oracle_max=args.oracle_max)
    text = report.to_json()
    if args.report:
        _write(args.report, text + "\n")
    else:
        print(text)
    if args.dump_gram:
        _write(args.dump_gram, gram_to_text(report.configuration.gram()))
    return EXIT_OK


def _cmd_generate(args) -> int:
    g = generate(args.family, args.n, args.seed)
    text = format_instance(g)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_audit(args) -> int:
    g = read_instance(args.instance)
    with open(args.gram, "r", encoding="utf-8") as fh:
        G = gram_from_text(fh.read())
    if G.shape[0] != g.n:
        raise InputError(f"matrix is {G.shape[0]}x{G.shape[0]}, instance has n={g.n}")
    psd_residual = max(0.0, -float(np.linalg.eigvalsh(0.5 * (G + G.T)).min()))
    audits = audit_configuration(extract_vectors(G), g, psd_residual)
    print(json.dumps(audits, indent=2, sort_keys=True))
    return EXIT_OK


def _describe(exc) -> str:
    stage = getattr(exc, "stage", None)
    return f"[{stage}] {exc}" if stage else str(exc)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_audit(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {_describe(exc)}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"parse error: cannot read {exc.filename}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"convergence error: {_describe(exc)} (residuals: {exc.residuals})", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (PropertyViolationError,) as exc:
        print(f"property violation: {_describe(exc)}", file=sys.stderr)
        return EXIT_PROPERTY
    except RoundingError as exc:
        print(f"convergence error: {_describe(exc)}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (InputError, SparseCutError) as exc:
        print(f"usage error: {_describe(exc)}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
