"""Exact cost of a call, counted in Python opcodes.

A count repeats exactly from run to run, so two counts compare sizes
with no timing noise: equal counts at 10 and at 10^5 symbols show that
a path does not loop over its input in Python.  A C call counts as one
opcode, however much work it does.
"""

import sys


def count_opcodes(fn, *args):
    """The number of opcodes run by fn(*args) in every Python frame it
    enters, its own included."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    before = sys.gettrace()
    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(before)
    return count
