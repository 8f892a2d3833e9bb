#!/usr/bin/env python3
"""Diff two `redclust bench` output trees, ignoring only what carries wall time.

Usage: python3 scripts/compare_outputs.py A B

Both trees must hold the same files, and each file must match byte for
byte, except:

- ``table_time_ms.tsv``, whose contents are not compared;
- ``report.json``, compared as JSON after dropping ``generated_at`` and
  every key ending in ``_ms``, at any depth. What is left is compared as
  canonical JSON text, so a float differing only in the sign of zero, or a
  NaN, counts as it is written.

Prints one line per difference and exits 1 if there is any, 0 if none, and
2 if A or B is not a directory. ``config_hash`` covers the dataset paths,
so run both sides on the same input paths.
"""

import json
import sys
from pathlib import Path

UNCOMPARED = "table_time_ms.tsv"
REPORT = "report.json"


def _without_timing(node):
    """``node`` with ``generated_at`` and every ``*_ms`` key removed, at any depth."""
    if isinstance(node, dict):
        return {
            key: _without_timing(value)
            for key, value in node.items()
            if key != "generated_at" and not key.endswith("_ms")
        }
    if isinstance(node, list):
        return [_without_timing(item) for item in node]
    return node


def _report_text(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    return json.dumps(_without_timing(payload), sort_keys=True)


def compare(a, b):
    """Differences between output trees ``a`` and ``b``, one line each."""
    a, b = Path(a), Path(b)
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = [f"only in {a}: {rel}" for rel in sorted(files_a - files_b)]
    diffs += [f"only in {b}: {rel}" for rel in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        if rel.name == UNCOMPARED:
            continue
        if rel.name == REPORT:
            same = _report_text(a / rel) == _report_text(b / rel)
        else:
            same = (a / rel).read_bytes() == (b / rel).read_bytes()
        if not same:
            diffs.append(f"differs: {rel}")
    return diffs


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(p).is_dir() for p in args):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    diffs = compare(*args)
    for line in diffs:
        print(line)
    if not diffs:
        print("no differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
