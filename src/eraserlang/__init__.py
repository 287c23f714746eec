"""Eraser words, staged erasure languages and their omega power.

A small toolkit for the backspace calculus: evaluating words containing
eraser symbols, deciding the staged erasure languages, coding erasers
over a two-letter auxiliary alphabet, and probing the omega power of
the resulting factor language (unique factorization, viable prefixes,
lasso certificates, enumeration and the intersection identity with
block streams).

Importing the package loads none of its modules: each public name
loads the module that defines it on first use (PEP 562), so a caller
pays only for the modules it touches.
"""

# module -> the public names it defines
_PUBLIC = {
    "words": ("ALPHA", "BETA", "Eraser", "MalformedInput", "UPWord",
              "format_staged", "format_up", "format_word", "parse_binary",
              "parse_coded", "parse_staged", "parse_up", "up_equal",
              "up_normalize", "up_prefix"),
    "eraser": ("EvalOutcome", "LoopCertificate", "certificate_holds", "erase",
               "erase_up", "staged_erase", "staged_erase_up"),
    "staged": ("min_stages", "vanishes", "vanishes_by_grammar",
               "vanishing_words", "words_over"),
    "coding": ("DecodeResult", "decode", "decode_up", "encode", "encode_up",
               "in_block_stream"),
    "omega": ("Factorization", "LassoVerdict", "factor_index", "factor_words",
              "factorize", "has_infinitely_many_ones",
              "in_coded_erasure_ladder", "in_erasure_ladder", "is_factor",
              "lasso_member", "nth_factor", "pairing_consistent",
              "vanishes_coded", "verify_intersection_identity",
              "viable_prefix"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # imported on the first name asked for, so a bare import loads nothing
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
