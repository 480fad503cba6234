#!/usr/bin/env python3
"""Self-test of the time-scaled input families.

    python3 perfbench/selftest.py

The benchmark relies on one property: multiplying every time value of a
system by ``k`` multiplies every bound by exactly ``k`` and changes
nothing else, path counts included. Then every member of a family does
the same work. This script analyses members at several ``k`` with the
CLI and compares each document with the ``k = 1`` one, field by field.

* ``multi6`` runs exactly.
* The adversarial system cannot finish exactly. It runs under an
  explored-paths cap, which trips at the same path whatever ``k`` is.

A scale-dependent heuristic fails here: a fast path taken only for small
numbers that changes a result, or a cut-off in absolute time units. The
factors include multiples of the base denominator 10007. The benchmark
never draws those, because they are cheaper, but their results must
scale all the same. Exits 1 on the first difference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import family  # noqa: E402
from run import build  # noqa: E402

FACTORS = (2, 3, 97, 10006, 10007, 10008, 65537, 500009, 999983, 10**6)
FLAGS = {"multi6": [], "adversarial": ["--max-paths", "3000"]}


def main():
    srtw, _ = build()
    workdir = os.path.join(HERE, ".run")
    os.makedirs(workdir, exist_ok=True)
    failures = 0
    for fam, flags in FLAGS.items():
        docs = {}
        for k in (1,) + FACTORS:
            path = os.path.join(workdir, f"selftest-{fam}.srtw")
            with open(path, "w") as f:
                f.write(family.member(fam, k))
            out = subprocess.run([srtw, "analyze", path, "--json", *flags], capture_output=True, timeout=120)
            if out.returncode != 0:
                print(f"{fam} k={k}: exit {out.returncode}: {out.stderr.decode()}")
                failures += 1
                continue
            docs[k] = out.stdout
        if 1 not in docs:
            continue
        ref = json.loads(docs[1])
        counts = [(s["task"], s["paths_generated"], s["paths_retained"]) for s in ref["streams"]]
        for k, body in docs.items():
            why = family.check_scaled(body, ref, k)
            print(f"{fam} k={k}: {'ok' if why is None else 'FAILED ' + why}")
            failures += why is not None
        print(f"{fam}: reference (task, generated, retained) = {counts}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
