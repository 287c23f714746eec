"""Command line front end.

One subcommand per library operation, deterministic text output.
Membership queries print "true" or "false"; evaluations print
"undefined", "finite: <word>" or "infinite: <prefix>|<period>".
Exit status 0 on success, 2 on malformed input or an unwritable report
path (diagnostic on the error stream), 1 on internal failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .words import (
    MalformedInput,
    format_staged,
    format_up,
    format_word,
    parse_coded,
    parse_staged,
    parse_up,
)
from .eraser import EvalOutcome, erase, erase_up, staged_erase, staged_erase_up
from .staged import min_stages, vanishes, vanishes_by_grammar, vanishing_words
from .coding import decode, encode, encode_up, in_block_stream
from .omega import (
    factor_words,
    factorize,
    has_infinitely_many_ones,
    in_coded_erasure_ladder,
    in_erasure_ladder,
    is_factor,
    lasso_member,
    nth_factor,
    pairing_consistent,
    vanishes_coded,
    verify_intersection_identity,
    viable_prefix,
)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def _bool_line(value: bool) -> int:
    print("true" if value else "false")
    return 0


def _outcome_line(out: EvalOutcome) -> int:
    if out.is_undefined:
        print("undefined")
    elif out.is_finite:
        print(f"finite: {format_word(out.word)}")
    else:
        print(f"infinite: {format_up(out.up)}")
    return 0


def _run_erase(args) -> int:
    if args.up:
        return _outcome_line(erase_up(parse_up(args.word, kind="staged")))
    return _outcome_line(erase(parse_staged(args.word)))


def _run_staged_erase(args) -> int:
    if args.up:
        out = staged_erase_up(parse_up(args.word, kind="staged"), args.k)
    else:
        out = staged_erase(parse_staged(args.word), args.k)
    return _outcome_line(out)


def _run_member_l1_grammar(args) -> int:
    return _bool_line(vanishes_by_grammar(parse_staged(args.word)))


def _run_member_lk(args) -> int:
    return _bool_line(vanishes(parse_staged(args.word), args.k))


def _run_member_lscript(args) -> int:
    return _bool_line(vanishes_coded(parse_coded(args.word)))


def _run_member_hv(args) -> int:
    return _bool_line(is_factor(parse_coded(args.word)))


def _run_member_rp(args) -> int:
    return _bool_line(in_block_stream(parse_up(args.word), args.p))


def _run_member_r(args) -> int:
    return _bool_line(
        has_infinitely_many_ones(parse_up(args.word, kind="binary")))


def _run_member_r_approx(args) -> int:
    return _bool_line(
        in_erasure_ladder(parse_up(args.word, kind="staged"), args.p))


def _run_member_encoded_r_approx(args) -> int:
    return _bool_line(in_coded_erasure_ladder(parse_up(args.word), args.p))


def _run_enumerate_lk(args) -> int:
    for word in vanishing_words(args.k, args.max_len):
        print(format_staged(word))
    return 0


def _run_enumerate_hv(args) -> int:
    for word in factor_words(args.max_len):
        print(word)
    return 0


def _run_min_k(args) -> int:
    k = min_stages(parse_staged(args.word))
    print("none" if k is None else k)
    return 0


def _run_encode(args) -> int:
    if args.up:
        print(format_up(encode_up(parse_up(args.word, kind="staged"))))
    else:
        print(encode(parse_staged(args.word)))
    return 0


def _run_decode(args) -> int:
    res = decode(parse_coded(args.word))
    print(format_staged(res.symbols))
    if res.dangling:
        print(f"dangling: {res.dangling}")
    return 0


def _run_factor(args) -> int:
    fac = factorize(parse_coded(args.word))
    if fac.count == 1:
        print(f"count=1 cuts={list(fac.cuts[1:-1])}")
    else:
        print(f"count={fac.count}")
    return 0


def _run_viable(args) -> int:
    return _bool_line(viable_prefix(parse_coded(args.word)))


def _run_lasso(args) -> int:
    verdict = lasso_member(parse_up(args.word), args.bound)
    if verdict.status == "yes":
        print(f"yes loop_start={verdict.loop_start} "
              f"loop_length={verdict.loop_length} "
              f"cuts={list(verdict.factor_cuts)}")
    elif verdict.status == "no":
        print("no")
    else:
        print(f"unknown bound={verdict.bound}")
    return 0


def _run_theta(args) -> int:
    if args.upto is not None:
        for i in range(args.upto + 1):
            print(f"{i} {nth_factor(i)}")
        return 0
    if args.index is None:
        print("theta needs an index or --upto", file=sys.stderr)
        return 2
    print(nth_factor(args.index))
    return 0


def _run_dcheck(args) -> int:
    return _bool_line(pairing_consistent(args.sigma, args.nu))


def _run_verify_rp(args) -> int:
    try:
        ok = verify_intersection_identity(args.p, args.n, args.report)
    except OSError as exc:
        print(f"cannot write report {args.report}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return _bool_line(ok)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eraserlang",
        description="eraser evaluation, staged erasure languages and the "
                    "omega power toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser(
        "erase", help="single-eraser evaluation of a staged word")
    cmd.add_argument("word", help="staged word, or prefix|period with --up")
    cmd.add_argument("--up", action="store_true",
                     help="treat the word as ultimately periodic")
    cmd.set_defaults(run=_run_erase)

    cmd = commands.add_parser(
        "staged-erase", help="multi-stage eraser pipeline")
    cmd.add_argument("word")
    cmd.add_argument("--k", type=_positive, required=True,
                     help="number of stages")
    cmd.add_argument("--up", action="store_true")
    cmd.set_defaults(run=_run_staged_erase)

    member = commands.add_parser(
        "member", help="membership queries").add_subparsers(
        dest="set_name", required=True)
    cmd = member.add_parser(
        "l1-grammar", help="one-stage language, by grammar derivation")
    cmd.add_argument("word")
    cmd.set_defaults(run=_run_member_l1_grammar)
    cmd = member.add_parser(
        "lk", help="k-stage erasure language, by evaluation")
    cmd.add_argument("word")
    cmd.add_argument("--k", type=_positive, required=True)
    cmd.set_defaults(run=_run_member_lk)
    cmd = member.add_parser(
        "lscript", help="coded words vanishing at their own top stage")
    cmd.add_argument("word")
    cmd.set_defaults(run=_run_member_lscript)
    cmd = member.add_parser("hv", help="the factor language (pad 0)*(pad 1)")
    cmd.add_argument("word")
    cmd.set_defaults(run=_run_member_hv)
    cmd = member.add_parser(
        "rp", help="order-p block streams (ultimately periodic)")
    cmd.add_argument("word")
    cmd.add_argument("--p", type=_positive, required=True)
    cmd.set_defaults(run=_run_member_rp)
    cmd = member.add_parser(
        "r", help="binary words with infinitely many ones")
    cmd.add_argument("word")
    cmd.set_defaults(run=_run_member_r)
    cmd = member.add_parser(
        "r-approx", help="staged words whose p-stage erasure has "
                         "infinitely many ones")
    cmd.add_argument("word")
    cmd.add_argument("--p", type=_positive, required=True)
    cmd.set_defaults(run=_run_member_r_approx)
    cmd = member.add_parser(
        "encoded-r-approx", help="coded twin of r-approx inside the "
                                 "order-p block streams")
    cmd.add_argument("word")
    cmd.add_argument("--p", type=_positive, required=True)
    cmd.set_defaults(run=_run_member_encoded_r_approx)

    enum = commands.add_parser(
        "enumerate", help="exhaustive listings").add_subparsers(
        dest="set_name", required=True)
    cmd = enum.add_parser("lk", help="k-stage erasure language members")
    cmd.add_argument("--k", type=_positive, required=True)
    cmd.add_argument("--max-len", type=_nonnegative, default=8)
    cmd.set_defaults(run=_run_enumerate_lk)
    cmd = enum.add_parser("hv", help="factor language members")
    cmd.add_argument("--max-len", type=_nonnegative, default=8)
    cmd.set_defaults(run=_run_enumerate_hv)

    cmd = commands.add_parser(
        "min-k", help="least stage count that erases the word away")
    cmd.add_argument("word")
    cmd.set_defaults(run=_run_min_k)

    cmd = commands.add_parser("encode", help="staged word to coded letters")
    cmd.add_argument("word")
    cmd.add_argument("--up", action="store_true")
    cmd.set_defaults(run=_run_encode)

    cmd = commands.add_parser("decode", help="coded letters to staged word")
    cmd.add_argument("word")
    cmd.set_defaults(run=_run_decode)

    cmd = commands.add_parser(
        "factor", help="count factor decompositions, with cuts when unique")
    cmd.add_argument("word")
    cmd.set_defaults(run=_run_factor)

    cmd = commands.add_parser(
        "viable", help="is the coded word a prefix of the omega power")
    cmd.add_argument("word")
    cmd.set_defaults(run=_run_viable)

    cmd = commands.add_parser(
        "lasso", help="bounded omega power membership for prefix|period")
    cmd.add_argument("word")
    cmd.add_argument("--bound", type=_positive, default=8,
                     help="period copies to explore (default 8)")
    cmd.set_defaults(run=_run_lasso)

    cmd = commands.add_parser(
        "theta", help="factor enumeration: index to word")
    cmd.add_argument("index", nargs="?", type=_nonnegative)
    cmd.add_argument("--upto", type=_nonnegative,
                     help="print the whole table for indices 0..N")
    cmd.set_defaults(run=_run_theta)

    cmd = commands.add_parser(
        "dcheck", help="index-stream pairing consistency for (sigma, nu)")
    cmd.add_argument("sigma", help="binary block word 0^n1 0^n1 ...")
    cmd.add_argument("nu", help="coded factor stream prefix")
    cmd.set_defaults(run=_run_dcheck)

    cmd = commands.add_parser(
        "verify-rp", help="intersection identity check at order p, "
                          "lengths up to n")
    cmd.add_argument("--p", type=_positive, required=True)
    cmd.add_argument("--n", type=_nonnegative, required=True)
    cmd.add_argument("--report", metavar="PATH",
                     help="also write a line-per-difference report")
    cmd.set_defaults(run=_run_verify_rp)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except MalformedInput as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
