"""Command-line interface.

Subcommands:
    construct theorem1 --q Q --t T --k K     additive-coset family
    construct theorem2 --q Q --t T --d D     extended multiplicative family
    verify FILE                              re-verify a code file
    sweep [--q 2,3,...] [--family F] [--format csv|json] [--out PATH]
    check-lemmas --q Q                       run all property suites for q
    no515                                    the [5,1,5] nonexistence search

Exit codes: 0 success, 1 verification failure, 2 invalid or excluded
parameters (including malformed code files), 3 I/O error, 4 internal
error (a defect in qmds; stdout then carries nothing).  The primary
stream (stdout) carries only machine-parseable output; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

from . import serialize
from .construct import (
    ExcludedParameters,
    ParameterError,
    QuantumParams,
    additive_coset_code,
    quantum_params_for_distance,
)
from .field import DEFAULT_ELEMENT_BOUND, MAX_ELEMENT_BOUND
from .verify import (
    DEFAULT_SWEEP_Q,
    FAMILIES,
    STATUS_EXCLUDED,
    STATUS_OK,
    emit,
    five_one_five_search,
    identity_suites,
    sweep,
    verify_code,
    verify_construction,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARAMS = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

ELEMENT_BOUND_ENV = "QMDS_ELEMENT_BOUND"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmds",
        description=(
            "Construct and verify Hermitian self-orthogonal GRS codes over "
            "GF(q^2) and the quantum MDS parameters they yield."
        ),
    )
    parser.add_argument(
        "--element-bound",
        type=int,
        default=None,
        help=(
            "override the maximum field size q^2 (default "
            f"{DEFAULT_ELEMENT_BOUND}, at most {MAX_ELEMENT_BOUND}; "
            f"env {ELEMENT_BOUND_ENV})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build and verify one code")
    fam = construct.add_subparsers(dest="family", required=True)
    th1 = fam.add_parser("theorem1", help="additive-coset GRS code of length tq")
    th1.add_argument("--q", type=int, required=True)
    th1.add_argument("--t", type=int, required=True)
    th1.add_argument("--k", type=int, required=True, help="classical dimension")
    th1.add_argument("--out", default=None, help="write the result here instead of stdout")
    th2 = fam.add_parser(
        "theorem2", help="extended multiplicative-coset code of length t(q+1)+2"
    )
    th2.add_argument("--q", type=int, required=True)
    th2.add_argument("--t", type=int, required=True)
    th2.add_argument("--d", type=int, required=True, help="quantum distance")
    th2.add_argument("--out", default=None, help="write the result here instead of stdout")

    verify = sub.add_parser("verify", help="re-verify a code file")
    verify.add_argument("file")

    sw = sub.add_parser("sweep", help="verify whole parameter families")
    sw.add_argument(
        "--q",
        default=",".join(str(q) for q in DEFAULT_SWEEP_Q),
        help="comma-separated prime powers (default %(default)s)",
    )
    sw.add_argument("--family", choices=FAMILIES, default="both")
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.add_argument("--out", default=None, help="write here instead of stdout")

    lemmas = sub.add_parser("check-lemmas", help="run all property suites for one q")
    lemmas.add_argument("--q", type=int, required=True)

    sub.add_parser("no515", help="exhaustive [5,1,5] nonexistence search over GF(4)")
    return parser


def _element_bound(args: argparse.Namespace) -> int:
    bound = args.element_bound
    env = os.environ.get(ELEMENT_BOUND_ENV)
    if bound is None and env:
        try:
            bound = int(env)
        except ValueError:
            raise ParameterError(f"{ELEMENT_BOUND_ENV} must be an integer, got {env!r}")
    if bound is None:
        return DEFAULT_ELEMENT_BOUND
    if not 4 <= bound <= MAX_ELEMENT_BOUND:  # GF(4) is the smallest field
        raise ParameterError(f"element bound {bound} is outside 4..{MAX_ELEMENT_BOUND}")
    return bound


def _cmd_construct(args: argparse.Namespace, bound: int) -> int:
    if args.family == "theorem1":
        result = additive_coset_code(args.q, args.t, args.k, bound)
    else:
        result = quantum_params_for_distance(args.q, args.t, args.d, bound)
    report = verify_construction(result)
    if not report.passed:
        print(json.dumps(report.as_dict()), file=sys.stderr)
        return EXIT_VERIFICATION
    obj = serialize.result_to_obj(result)
    serialize.save(obj, args.out if args.out else sys.stdout)
    qp = result.quantum
    print(
        f"verified {report.identity}: [[{qp.n},{qp.k},{qp.d}]]_{qp.q} "
        f"(distance method: {report.distance_method})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, bound: int) -> int:
    code = serialize.load_code(args.file, bound)
    report = verify_code(code, identity=os.path.basename(args.file))
    obj = report.as_dict()
    qp = QuantumParams.from_classical(code.length, code.k, code.field.q, args.file)
    obj["quantum"] = qp.as_dict()
    serialize.save(obj, sys.stdout)
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_sweep(args: argparse.Namespace, bound: int) -> int:
    try:
        q_list = [int(tok) for tok in args.q.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"--q expects comma-separated integers, got {args.q!r}")
    if not q_list:
        raise ParameterError("--q lists no values")
    rows = sweep(q_list, args.family, element_bound=bound)
    emit(rows, args.format, args.out if args.out else sys.stdout)
    bad = [r for r in rows if r.status not in (STATUS_OK, STATUS_EXCLUDED)]
    print(
        f"{len(rows)} rows: {sum(r.status == STATUS_OK for r in rows)} ok, "
        f"{sum(r.status == STATUS_EXCLUDED for r in rows)} excluded, "
        f"{len(bad)} failed",
        file=sys.stderr,
    )
    return EXIT_VERIFICATION if bad else EXIT_OK


def _cmd_check_lemmas(args: argparse.Namespace, bound: int) -> int:
    suites = identity_suites(args.q, element_bound=bound)
    all_passed = all(s.passed for s in suites)
    obj = {
        "q": args.q,
        "suites": [s.as_dict() for s in suites],
        "all_passed": all_passed,
    }
    serialize.save(obj, sys.stdout)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def _cmd_no515() -> int:
    record = five_one_five_search()
    serialize.save(dataclasses.asdict(record), sys.stdout)
    return EXIT_OK if record.confirmed else EXIT_VERIFICATION


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        bound = _element_bound(args)
        if args.command == "construct":
            return _cmd_construct(args, bound)
        if args.command == "verify":
            return _cmd_verify(args, bound)
        if args.command == "sweep":
            return _cmd_sweep(args, bound)
        if args.command == "check-lemmas":
            return _cmd_check_lemmas(args, bound)
        if args.command == "no515":
            return _cmd_no515()
        parser.error(f"unknown command {args.command!r}")
    except ExcludedParameters as exc:
        print(f"excluded parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except (ParameterError, serialize.FormatError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # a defect, not bad input: keep it apart from exits 1 and 2
        import traceback  # here, not at the top: it adds milliseconds to every start-up

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
