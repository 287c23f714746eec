"""Rebuild the pinned answers in bench/pinned/ from tests/oracles.py.

    python3 bench/pin.py

viable_upto6.json lists every coded word of length at most 6 that is a
prefix of the omega power.  The oracle takes the prefixes of all factor
concatenations up to 16 letters that lie within 10 letters of a member;
acceptance criterion 07 shows that bound is exact at these lengths.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import concat_members, factor_rows, prefix_oracle  # noqa: E402


def main() -> None:
    members = concat_members(factor_rows(16), 16)
    words = sorted(prefix_oracle(members, 6, 10), key=lambda w: (len(w), w))
    out = Path(__file__).resolve().parent / "pinned" / "viable_upto6.json"
    out.write_text(json.dumps(words, indent=0) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
