"""Command line front end.

One subcommand per library operation, deterministic text output.
Membership queries print "true" or "false"; evaluations print
"undefined", "finite: <word>" or "infinite: <prefix>|<period>".
Exit status 0 on success, 2 on malformed input or an unwritable report
path (diagnostic on the error stream), 1 on internal failure.

Every command is one row of the table ``_COMMANDS``: its help text, its
arguments and the run that answers it.  ``member`` and ``enumerate``
hold a table of sets in place of arguments, with rows of the same
shape.  A call builds the argparse parser of the command it names only
(and of that set only, under ``member``/``enumerate``); a command line
that names none, such as ``--help``, gets every command.

A call also imports only the module of its command: this module takes
nothing but ``words`` from the package at import and finds every other
function by its public name on the package (``_lib``), whose lazy
namespace loads the one module that defines it, so ``erase`` never
loads ``staged``, ``coding`` or ``omega``.  The true/false questions
about one word share the run ``_answer`` builds, and the evaluations
the one ``_evaluate`` builds; the other commands print their own
answers.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .words import (
    MalformedInput,
    format_staged,
    format_up,
    format_word,
    parse_coded,
    parse_staged,
    parse_up,
)

_parse_up_staged = partial(parse_up, kind="staged")
_parse_up_binary = partial(parse_up, kind="binary")


def _lib(name: str):
    """The library function or record of that public name."""
    return getattr(sys.modules[__package__], name)


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


def _answer(name: str, parse, *flags: str):
    """The run that prints the verdict of the library function name on
    the word parse reads, with the values of flags after the word."""
    def run(args) -> int:
        return _bool_line(_lib(name)(
            parse(args.word), *[getattr(args, flag) for flag in flags]))
    return run


def _evaluate(name: str, *flags: str):
    """The run that prints the outcome of the library function name on
    a staged word, or of name_up on a prefix|period one under --up."""
    def run(args) -> int:
        evaluate = _lib(f"{name}_up" if args.up else name)
        parse = _parse_up_staged if args.up else parse_staged
        return _outcome_line(evaluate(
            parse(args.word), *[getattr(args, flag) for flag in flags]))
    return run


def _run_enumerate_lk(args) -> int:
    for word in _lib("vanishing_words")(args.k, args.max_len):
        print(format_staged(word))
    return 0


def _run_enumerate_hv(args) -> int:
    for word in _lib("factor_words")(args.max_len):
        print(word)
    return 0


def _run_min_k(args) -> int:
    k = _lib("min_stages")(parse_staged(args.word))
    print("none" if k is None else k)
    return 0


def _run_encode(args) -> int:
    if args.up:
        print(format_up(_lib("encode_up")(_parse_up_staged(args.word))))
    else:
        print(_lib("encode")(parse_staged(args.word)))
    return 0


def _run_decode(args) -> int:
    res = _lib("decode")(parse_coded(args.word))
    print(format_staged(res.symbols))
    if res.dangling:
        print(f"dangling: {res.dangling}")
    return 0


def _run_factor(args) -> int:
    fac = _lib("factorize")(parse_coded(args.word))
    if fac.count == 1:
        print(f"count=1 cuts={list(fac.cuts[1:-1])}")
    else:
        print(f"count={fac.count}")
    return 0


def _run_lasso(args) -> int:
    verdict = _lib("lasso_member")(parse_up(args.word), args.bound)
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
    nth_factor = _lib("nth_factor")
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
    return _bool_line(_lib("pairing_consistent")(args.sigma, args.nu))


def _run_verify_rp(args) -> int:
    try:
        ok = _lib("verify_intersection_identity")(args.p, args.n, args.report)
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
                   [_WORD], _answer("vanishes_by_grammar", parse_staged)),
    "lk": ("k-stage erasure language, by evaluation",
           [_WORD, _K], _answer("vanishes", parse_staged, "k")),
    "lscript": ("coded words vanishing at their own top stage",
                [_WORD], _answer("vanishes_coded", parse_coded)),
    "hv": ("the factor language (pad 0)*(pad 1)", [_WORD],
           _answer("is_factor", parse_coded)),
    "rp": ("order-p block streams (ultimately periodic)",
           [_WORD, _P], _answer("in_block_stream", parse_up, "p")),
    "r": ("binary words with infinitely many ones", [_WORD],
          _answer("has_infinitely_many_ones", _parse_up_binary)),
    "r-approx": ("staged words whose p-stage erasure has infinitely many "
                 "ones", [_WORD, _P],
                 _answer("in_erasure_ladder", _parse_up_staged, "p")),
    "encoded-r-approx": ("coded twin of r-approx inside the order-p block "
                         "streams", [_WORD, _P],
                         _answer("in_coded_erasure_ladder", parse_up, "p")),
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
              _evaluate("erase")),
    "staged-erase": ("multi-stage eraser pipeline",
                     [_WORD, _arg("--k", type=_positive, required=True,
                                  help="number of stages"), _UP],
                     _evaluate("staged_erase", "k")),
    "member": ("membership queries", _MEMBER_SETS),
    "enumerate": ("exhaustive listings", _ENUMERATE_SETS),
    "min-k": ("least stage count that erases the word away",
              [_WORD], _run_min_k),
    "encode": ("staged word to coded letters", [_WORD, _UP], _run_encode),
    "decode": ("coded letters to staged word", [_WORD], _run_decode),
    "factor": ("count factor decompositions, with cuts when unique",
               [_WORD], _run_factor),
    "viable": ("is the coded word a prefix of the omega power",
               [_WORD], _answer("viable_prefix", parse_coded)),
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
