"""Compare two directories of treeq CLI outputs, file by file.

    python tests/compare_outputs.py A B [--files N]

Both directories must hold the same file names.  ``model.json`` and
``delta.json`` must be equal byte for byte; every other file must be equal
as JSON once every ``wall_ms`` field, the only timing a command writes, is
dropped.  With ``--files N``, A must hold exactly N files.  It prints the
count and the mismatches, and exits 1 if there is any.
"""

import argparse
import json
import os
import sys

BYTE_EXACT = ("model.json", "delta.json")


def drop_wall_ms(x):
    if isinstance(x, dict):
        return {k: drop_wall_ms(v) for k, v in x.items() if k != "wall_ms"}
    return [drop_wall_ms(v) for v in x] if isinstance(x, list) else x


def same(a: str, b: str, name: str) -> bool:
    if name in BYTE_EXACT:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            return fa.read() == fb.read()
    with open(os.path.join(a, name)) as fa, open(os.path.join(b, name)) as fb:
        return drop_wall_ms(json.load(fa)) == drop_wall_ms(json.load(fb))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--files", type=int, help="the number of files A must hold")
    args = parser.parse_args(argv)
    names = sorted(os.listdir(args.a))
    bad = [name for name in names if name in os.listdir(args.b) and not same(args.a, args.b, name)]
    if sorted(os.listdir(args.b)) != names or (args.files is not None and len(names) != args.files):
        bad.append("file list")
    print(len(names), "files compared, mismatches:", bad or "none")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
