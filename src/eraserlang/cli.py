"""Command line front end.

One subcommand per library operation, deterministic text output.
Membership queries print "true" or "false"; evaluations print
"undefined", "finite: <word>" or "infinite: <prefix>|<period>".
Exit status 0 on success, 2 on malformed input or an unwritable report
path (diagnostic on the error stream), 1 on internal failure.

Every command is one row of the table ``_COMMANDS``: its help text, its
arguments and the ``_run_*`` function that answers it.  ``member`` and
``enumerate`` hold a table of sets in place of arguments, with rows of
the same shape.  A call builds the argparse parser of the command it
names only (and of that set only, under ``member``/``enumerate``); a
command line that names none, such as ``--help``, gets every command.

A call also imports only the module of its command: this module takes
nothing but ``words`` from the package at import, and each ``_run_*``
imports its own function when it runs, so ``erase`` never loads
``staged``, ``coding`` or ``omega``.
"""

from __future__ import annotations

import argparse
import sys

from .words import (
    MalformedInput,
    format_staged,
    format_up,
    format_word,
    parse_coded,
    parse_staged,
    parse_up,
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


def _outcome_line(out) -> int:
    """Print an EvalOutcome on one line."""
    if out.is_undefined:
        print("undefined")
    elif out.is_finite:
        print(f"finite: {format_word(out.word)}")
    else:
        print(f"infinite: {format_up(out.up)}")
    return 0


def _run_erase(args) -> int:
    from .eraser import erase, erase_up
    if args.up:
        return _outcome_line(erase_up(parse_up(args.word, kind="staged")))
    return _outcome_line(erase(parse_staged(args.word)))


def _run_staged_erase(args) -> int:
    from .eraser import staged_erase, staged_erase_up
    if args.up:
        out = staged_erase_up(parse_up(args.word, kind="staged"), args.k)
    else:
        out = staged_erase(parse_staged(args.word), args.k)
    return _outcome_line(out)


def _run_member_l1_grammar(args) -> int:
    from .staged import vanishes_by_grammar
    return _bool_line(vanishes_by_grammar(parse_staged(args.word)))


def _run_member_lk(args) -> int:
    from .staged import vanishes
    return _bool_line(vanishes(parse_staged(args.word), args.k))


def _run_member_lscript(args) -> int:
    from .omega import vanishes_coded
    return _bool_line(vanishes_coded(parse_coded(args.word)))


def _run_member_hv(args) -> int:
    from .omega import is_factor
    return _bool_line(is_factor(parse_coded(args.word)))


def _run_member_rp(args) -> int:
    from .coding import in_block_stream
    return _bool_line(in_block_stream(parse_up(args.word), args.p))


def _run_member_r(args) -> int:
    from .omega import has_infinitely_many_ones
    return _bool_line(
        has_infinitely_many_ones(parse_up(args.word, kind="binary")))


def _run_member_r_approx(args) -> int:
    from .omega import in_erasure_ladder
    return _bool_line(
        in_erasure_ladder(parse_up(args.word, kind="staged"), args.p))


def _run_member_encoded_r_approx(args) -> int:
    from .omega import in_coded_erasure_ladder
    return _bool_line(in_coded_erasure_ladder(parse_up(args.word), args.p))


def _run_enumerate_lk(args) -> int:
    from .staged import vanishing_words
    for word in vanishing_words(args.k, args.max_len):
        print(format_staged(word))
    return 0


def _run_enumerate_hv(args) -> int:
    from .omega import factor_words
    for word in factor_words(args.max_len):
        print(word)
    return 0


def _run_min_k(args) -> int:
    from .staged import min_stages
    k = min_stages(parse_staged(args.word))
    print("none" if k is None else k)
    return 0


def _run_encode(args) -> int:
    from .coding import encode, encode_up
    if args.up:
        print(format_up(encode_up(parse_up(args.word, kind="staged"))))
    else:
        print(encode(parse_staged(args.word)))
    return 0


def _run_decode(args) -> int:
    from .coding import decode
    res = decode(parse_coded(args.word))
    print(format_staged(res.symbols))
    if res.dangling:
        print(f"dangling: {res.dangling}")
    return 0


def _run_factor(args) -> int:
    from .omega import factorize
    fac = factorize(parse_coded(args.word))
    if fac.count == 1:
        print(f"count=1 cuts={list(fac.cuts[1:-1])}")
    else:
        print(f"count={fac.count}")
    return 0


def _run_viable(args) -> int:
    from .omega import viable_prefix
    return _bool_line(viable_prefix(parse_coded(args.word)))


def _run_lasso(args) -> int:
    from .omega import lasso_member
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
    from .omega import nth_factor
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
    from .omega import pairing_consistent
    return _bool_line(pairing_consistent(args.sigma, args.nu))


def _run_verify_rp(args) -> int:
    from .omega import verify_intersection_identity
    try:
        ok = verify_intersection_identity(args.p, args.n, args.report)
    except OSError as exc:
        print(f"cannot write report {args.report}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return _bool_line(ok)


def _arg(*names: str, **options) -> tuple:
    return names, options


_WORD = _arg("word")
_UP = _arg("--up", action="store_true")
_K = _arg("--k", type=_positive, required=True)
_P = _arg("--p", type=_positive, required=True)
_MAX_LEN = _arg("--max-len", type=_nonnegative, default=8)

# name -> (help, arguments, run), or (help, table of sets) for a command
# with sets of its own; the order is the order of the help listings
_MEMBER_SETS = {
    "l1-grammar": ("one-stage language, by grammar derivation",
                   [_WORD], _run_member_l1_grammar),
    "lk": ("k-stage erasure language, by evaluation",
           [_WORD, _K], _run_member_lk),
    "lscript": ("coded words vanishing at their own top stage",
                [_WORD], _run_member_lscript),
    "hv": ("the factor language (pad 0)*(pad 1)", [_WORD], _run_member_hv),
    "rp": ("order-p block streams (ultimately periodic)",
           [_WORD, _P], _run_member_rp),
    "r": ("binary words with infinitely many ones", [_WORD], _run_member_r),
    "r-approx": ("staged words whose p-stage erasure has infinitely many "
                 "ones", [_WORD, _P], _run_member_r_approx),
    "encoded-r-approx": ("coded twin of r-approx inside the order-p block "
                         "streams", [_WORD, _P], _run_member_encoded_r_approx),
}

_ENUMERATE_SETS = {
    "lk": ("k-stage erasure language members", [_K, _MAX_LEN],
           _run_enumerate_lk),
    "hv": ("factor language members", [_MAX_LEN], _run_enumerate_hv),
}

_COMMANDS = {
    "erase": ("single-eraser evaluation of a staged word",
              [_arg("word", help="staged word, or prefix|period with --up"),
               _arg("--up", action="store_true",
                    help="treat the word as ultimately periodic")],
              _run_erase),
    "staged-erase": ("multi-stage eraser pipeline",
                     [_WORD, _arg("--k", type=_positive, required=True,
                                  help="number of stages"), _UP],
                     _run_staged_erase),
    "member": ("membership queries", _MEMBER_SETS),
    "enumerate": ("exhaustive listings", _ENUMERATE_SETS),
    "min-k": ("least stage count that erases the word away",
              [_WORD], _run_min_k),
    "encode": ("staged word to coded letters", [_WORD, _UP], _run_encode),
    "decode": ("coded letters to staged word", [_WORD], _run_decode),
    "factor": ("count factor decompositions, with cuts when unique",
               [_WORD], _run_factor),
    "viable": ("is the coded word a prefix of the omega power",
               [_WORD], _run_viable),
    "lasso": ("bounded omega power membership for prefix|period",
              [_WORD, _arg("--bound", type=_positive, default=8,
                           help="period copies to explore (default 8)")],
              _run_lasso),
    "theta": ("factor enumeration: index to word",
              [_arg("index", nargs="?", type=_nonnegative),
               _arg("--upto", type=_nonnegative,
                    help="print the whole table for indices 0..N")],
              _run_theta),
    "dcheck": ("index-stream pairing consistency for (sigma, nu)",
               [_arg("sigma", help="binary block word 0^n1 0^n1 ..."),
                _arg("nu", help="coded factor stream prefix")],
               _run_dcheck),
    "verify-rp": ("intersection identity check at order p, lengths up to n",
                  [_P, _arg("--n", type=_nonnegative, required=True),
                   _arg("--report", metavar="PATH",
                        help="also write a line-per-difference report")],
                  _run_verify_rp),
}


def _add_commands(parser: argparse.ArgumentParser, table: dict, dest: str,
                  argv: list[str]) -> None:
    """Add the commands of table to parser: only the one argv starts
    with, or every one when argv starts with none of them.

    A lone command still shows the whole choice list in the usage line,
    so that errors read as they would with every command present.
    """
    lean = bool(argv) and argv[0] in table
    commands = parser.add_subparsers(
        dest=dest, required=True,
        metavar="{" + ",".join(table) + "}" if lean else None)
    for name in argv[:1] if lean else table:
        help_text, *spec = table[name]
        cmd = commands.add_parser(name, help=help_text)
        if isinstance(spec[0], dict):  # a command with sets of its own
            _add_commands(cmd, spec[0], "set_name", argv[1:] if lean else [])
            continue
        arguments, run = spec
        for names, options in arguments:
            cmd.add_argument(*names, **options)
        cmd.set_defaults(run=run)


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv, holding the command argv invokes, or every
    command when it invokes none."""
    parser = argparse.ArgumentParser(
        prog="eraserlang",
        description="eraser evaluation, staged erasure languages and the "
                    "omega power toolkit")
    _add_commands(parser, _COMMANDS, "command", argv)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.run(args)
    except MalformedInput as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
