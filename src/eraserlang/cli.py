"""Command line front end.

One subcommand per library operation, deterministic text output.
Membership queries print "true" or "false"; evaluations print
"undefined", "finite: <word>" or "infinite: <prefix>|<period>".
Exit status 0 on success, 2 on malformed input or an unwritable report
path (diagnostic on the error stream), 1 on internal failure (with a
traceback) or on output to a pipe whose reader has gone (silently).

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
loads ``staged``, ``coding`` or ``omega``.  ``omega`` loads ``staged``
only to build factor rows, so ``factor`` does not load it either.

One builder, ``_run``, makes the run of every command but ``theta``
and ``verify-rp``: it reads the word with the row's parser (or the
``--up`` one, calling ``<name>_up``), calls the library function with
the row's flags after the word and hands the answer to the row's
printer, such as ``_bool_line`` or ``_outcome_line``.  On a failure a
run raises ``MalformedInput``, and ``main`` prints it and exits 2.

A word given as ``-`` is read from stdin, with one trailing newline
dropped.  ``viable`` reads it as a stream of 64 KiB reads, each checked
as it comes, so its memory stays flat however long the word; every
other command reads it whole and then runs as on an argument.

The ``eraserlang`` script and ``python -m eraserlang.cli`` run
``console``, which flushes stdout and stderr once ``main`` returns and
ends the process with ``os._exit``, skipping the interpreter teardown
that would free every object.  A pipe whose reader has gone, met while
``main`` writes or by the flush, ends the call with status 1 and
nothing on stderr.  ``main`` returns its code to callers in process.
"""

from __future__ import annotations

import argparse
import codecs
import os
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


def _bool_line(value: bool) -> None:
    print("true" if value else "false")


def _outcome_line(out) -> None:
    """Print an EvalOutcome on one line; its word is always staged."""
    if out.is_undefined:
        print("undefined")
    elif out.is_finite:
        print(f"finite: {format_staged(out.word)}")
    else:
        print(f"infinite: {format_up(out.up)}")


def _word_lines(words) -> None:
    """Print a listing of coded or staged words, one to a line."""
    for word in words:
        print(format_word(word))


def _min_k_line(k: int | None) -> None:
    print("none" if k is None else k)


def _encoded_line(code) -> None:
    """Print a coded word, or a coded prefix|period under --up."""
    print(code if isinstance(code, str) else format_up(code))


def _decoded_lines(res) -> None:
    print(format_staged(res.symbols))
    if res.dangling:
        print(f"dangling: {res.dangling}")


def _factor_line(fac) -> None:
    if fac.count == 1:
        print(f"count=1 cuts={list(fac.cuts[1:-1])}")
    else:
        print(f"count={fac.count}")


def _lasso_line(verdict) -> None:
    if verdict.status == "yes":
        print(f"yes loop_start={verdict.loop_start} "
              f"loop_length={verdict.loop_length} "
              f"cuts={list(verdict.factor_cuts)}")
    elif verdict.status == "no":
        print("no")
    else:
        print(f"unknown bound={verdict.bound}")


_READ = 1 << 16  # bytes per read of a word on stdin


def _stdin_chunks():
    """The text on stdin, one read at a time, with one trailing newline
    (``\\n`` or ``\\r\\n``) dropped: each read holds back its last two
    characters until the next one comes.  Bytes decode as UTF-8, a byte
    that does not as a lone surrogate, as in a command-line argument."""
    decode = codecs.getincrementaldecoder("utf-8")("surrogateescape").decode
    held = ""
    try:
        for data in iter(partial(sys.stdin.buffer.read, _READ), b""):
            text = held + decode(data)
            held = text[-2:]
            yield text[:-2]
    except (AttributeError, OSError):  # stdin closed, or not for reading
        raise MalformedInput("cannot read the word from stdin") from None
    held += decode(b"", True)
    yield held[:-2] if held.endswith("\r\n") else held.removesuffix("\n")


def _checked(parse, chunks):
    """The chunks, each checked by parse, with the position of a fault
    counted from the start of the first."""
    start = 0
    for chunk in chunks:
        try:
            parse(chunk)
        except MalformedInput as exc:
            raise exc.shifted(start) from None
        start += len(chunk)
        yield chunk


def _run(name: str, show, parse=None, *flags: str, up=None,
         stream: bool = False):
    """The run that shows the answer of the library function name on
    the word parse reads, with the values of flags after the word; a
    command without parse has no word.  Under --up it answers with
    name_up on the word up reads.

    A word of - comes from stdin: whole, or under stream as checked
    chunks, the rest of which are checked once the function answers, so
    that a malformed character anywhere exits 2 as in an argument."""
    def run(args) -> None:
        fn, read = (f"{name}_up", up) if up and args.up else (name, parse)
        chunks = ()
        if not read:
            word = []
        elif args.word != "-":
            word = [read(args.word)]
        elif stream:
            chunks = _checked(read, _stdin_chunks())
            word = [chunks]
        else:
            word = [read("".join(_stdin_chunks()))]
        answer = _lib(fn)(*word, *[getattr(args, flag) for flag in flags])
        for _ in chunks:  # what the function left unread
            pass
        show(answer)
    return run


def _run_theta(args) -> None:
    nth_factor = _lib("nth_factor")
    if args.upto is not None:
        for i in range(args.upto + 1):
            print(f"{i} {nth_factor(i)}")
    elif args.index is None:
        raise MalformedInput("theta needs an index or --upto")
    else:
        print(nth_factor(args.index))


def _run_verify_rp(args) -> None:
    try:
        ok = _lib("verify_intersection_identity")(args.p, args.n, args.report)
    except OSError as exc:
        raise MalformedInput(f"cannot write report {args.report}: "
                             f"{exc.strerror or exc}") from None
    _bool_line(ok)


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
    "l1-grammar": ("one-stage language, by grammar derivation", [_WORD],
                   _run("vanishes_by_grammar", _bool_line, parse_staged)),
    "lk": ("k-stage erasure language, by evaluation", [_WORD, _K],
           _run("vanishes", _bool_line, parse_staged, "k")),
    "lscript": ("coded words vanishing at their own top stage", [_WORD],
                _run("vanishes_coded", _bool_line, parse_coded)),
    "hv": ("the factor language (pad 0)*(pad 1)", [_WORD],
           _run("is_factor", _bool_line, parse_coded)),
    "rp": ("order-p block streams (ultimately periodic)", [_WORD, _P],
           _run("in_block_stream", _bool_line, parse_up, "p")),
    "r": ("binary words with infinitely many ones", [_WORD],
          _run("has_infinitely_many_ones", _bool_line, _parse_up_binary)),
    "r-approx": ("staged words whose p-stage erasure has infinitely many "
                 "ones", [_WORD, _P],
                 _run("in_erasure_ladder", _bool_line, _parse_up_staged,
                      "p")),
    "encoded-r-approx": ("coded twin of r-approx inside the order-p block "
                         "streams", [_WORD, _P],
                         _run("in_coded_erasure_ladder", _bool_line,
                              parse_up, "p")),
}

_ENUMERATE_SETS = {
    "lk": ("k-stage erasure language members", [_K, _MAX_LEN],
           _run("vanishing_words", _word_lines, None, "k", "max_len")),
    "hv": ("factor language members", [_MAX_LEN],
           _run("factor_words", _word_lines, None, "max_len")),
}

_COMMANDS = {
    "erase": ("single-eraser evaluation of a staged word",
              [_arg("word", help="staged word, or prefix|period with --up"),
               _arg("--up", action="store_true",
                    help="treat the word as ultimately periodic")],
              _run("erase", _outcome_line, parse_staged,
                   up=_parse_up_staged)),
    "staged-erase": ("multi-stage eraser pipeline",
                     [_WORD, _arg("--k", type=_positive, required=True,
                                  help="number of stages"), _UP],
                     _run("staged_erase", _outcome_line, parse_staged, "k",
                          up=_parse_up_staged)),
    "member": ("membership queries", _MEMBER_SETS),
    "enumerate": ("exhaustive listings", _ENUMERATE_SETS),
    "min-k": ("least stage count that erases the word away", [_WORD],
              _run("min_stages", _min_k_line, parse_staged)),
    "encode": ("staged word to coded letters", [_WORD, _UP],
               _run("encode", _encoded_line, parse_staged,
                    up=_parse_up_staged)),
    "decode": ("coded letters to staged word", [_WORD],
               _run("decode", _decoded_lines, parse_coded)),
    "factor": ("count factor decompositions, with cuts when unique",
               [_WORD], _run("factorize", _factor_line, parse_coded)),
    "viable": ("is the coded word a prefix of the omega power", [_WORD],
               _run("viable_prefix", _bool_line, parse_coded, stream=True)),
    "lasso": ("bounded omega power membership for prefix|period",
              [_WORD, _arg("--bound", type=_positive, default=8,
                           help="period copies to explore (default 8)")],
              _run("lasso_member", _lasso_line, parse_up, "bound")),
    "theta": ("factor enumeration: index to word",
              [_arg("index", nargs="?", type=_nonnegative),
               _arg("--upto", type=_nonnegative,
                    help="print the whole table for indices 0..N")],
              _run_theta),
    "dcheck": ("index-stream pairing consistency for (sigma, nu)",
               [_arg("sigma", help="binary block word 0^n1 0^n1 ..."),
                _arg("nu", help="coded factor stream prefix")],
               _run("pairing_consistent", _bool_line, None, "sigma", "nu")),
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
        args.run(args)
    except MalformedInput as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


def console() -> None:
    """Exit with the code of main once the output is flushed, skipping
    the teardown that frees every object, about an eighth of a short call.
    A closed pipe, met while main writes or by the flush, ends the call
    with status 1 and nothing on stderr, as a tool ends on EPIPE; any
    other error, from main or the flush, reaches the interpreter, which
    prints its traceback."""
    try:
        code = main()
        for stream in sys.stdout, sys.stderr:
            if stream is not None:  # None for a stream closed at start
                stream.flush()
    except BrokenPipeError:  # the reader has gone: nothing more to say
        code = 1
    os._exit(code)


if __name__ == "__main__":
    console()
