"""Compare two benchmark runs for bit identity.

    python3 tools/compare_runs.py trees A B
        byte-compares two run trees that ``bench/run.py`` leaves in
        ``bench/.work/<workload>-s<seed>``, file by file, skipping
        ``run_manifest.json`` (wall time and resolved paths) and
        ``result.json`` (timings); a file in one tree only is a difference.

    python3 tools/compare_runs.py bench A.json B.json
        compares the ``fits`` records of every workload of two
        ``BENCH_*.json`` files, record by record.

Each difference is printed; the exit code is 1 if there is any, else 0.
Typical use, with the parent commit checked out in a second directory and
one run of the same workload and seed in each:

    python3 tools/compare_runs.py trees ../parent/bench/.work/fit-exp-s401 \\
        bench/.work/fit-exp-s401
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SKIPPED = {"run_manifest.json", "result.json"}


def tree_differences(a: Path, b: Path) -> list[str]:
    """The relative paths whose bytes differ between two run trees, or that
    only one of them holds, skipping the files named in ``SKIPPED``."""

    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.name not in SKIPPED}

    fa, fb = files(a), files(b)
    out = [f"only in {a}: {p}" for p in sorted(fa - fb)]
    out += [f"only in {b}: {p}" for p in sorted(fb - fa)]
    out += [f"differs: {p}" for p in sorted(fa & fb) if (a / p).read_bytes() != (b / p).read_bytes()]
    return out


def fit_differences(a: Path, b: Path) -> list[str]:
    """Workload by workload, the ``fits`` records of two BENCH files that
    differ, or that only one of them holds."""
    wa, wb = (json.loads(p.read_text())["workloads"] for p in (a, b))
    out = [f"workload only in {a if name in wa else b}: {name}" for name in sorted(set(wa) ^ set(wb))]
    for name in sorted(set(wa) & set(wb)):
        ra = {r["op"]: r for r in wa[name].get("fits", [])}
        rb = {r["op"]: r for r in wb[name].get("fits", [])}
        out += [f"{name}: {op} only in {a if op in ra else b}" for op in sorted(set(ra) ^ set(rb))]
        out += [
            f"{name}: {op}: {ra[op]} != {rb[op]}"
            for op in sorted(set(ra) & set(rb)) if ra[op] != rb[op]
        ]
        if not ra:
            out.append(f"{name}: no fits records")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("kind", choices=("trees", "bench"))
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = p.parse_args(argv)
    for path in (args.a, args.b):
        if not path.exists():
            p.error(f"{path} does not exist")
    diffs = (tree_differences if args.kind == "trees" else fit_differences)(args.a, args.b)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s)", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
