#!/usr/bin/env python3
"""Fails when a document cites a test source that does not exist.

DESIGN.md and README.md back their invariants with citations such as
`tests/integration/golden_digest_test.cpp`; a renamed or deleted test
would otherwise leave the claim pointing at nothing.

Usage: design_refs.py ROOT DOC [DOC ...]   (DOC paths relative to ROOT)
"""

import pathlib
import re
import sys

CITATION = re.compile(r"tests/[A-Za-z0-9_./-]+\.cpp")


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1])
    checked = 0
    missing = []
    for doc in argv[2:]:
        text = (root / doc).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for cited in CITATION.findall(line):
                checked += 1
                if not (root / cited).is_file():
                    missing.append(f"{doc}:{lineno}: {cited}")
    for entry in missing:
        print(f"missing test source: {entry}", file=sys.stderr)
    print(f"{checked} citations checked, {len(missing)} missing")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
