#!/usr/bin/env python3
"""Record the golden SHA-256 of every checked output into goldens.json.

Run from the root of a checkout whose outputs are known good:

    python3 perfbench/record_goldens.py --seeds 0-15

For each workload and seed it generates the inputs, runs one CLI session,
and keeps the digests only if every oracle check passed. Outputs that do
not depend on the seed are stored once per workload, under "any", and must
agree across the seeds recorded: on store-qa the dictionary built from the
bundled ontologies, on build-dict the evaluation summary of the bundled
questions (no question names a synthetic anchor). The store file is never
hashed: its format may change while its contents stay the same.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

import run
from workloads import WORKLOADS

DICT_OUTPUTS = ("mappings.tsv", "corpus.tsv", "dict.json")
OUTPUTS = (*DICT_OUTPUTS, "summary.tsv")
SEED_FREE = {"build-dict": ("summary.tsv",), "store-qa": DICT_OUTPUTS}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=[0], help="inclusive range, e.g. 0-15")
    args = parser.parse_args()
    if not run.use_checkout_sources():
        return 2
    goldens: dict = {}
    for name in WORKLOADS:
        goldens[name] = {}
        for seed in args.seeds:
            with run.workdir(f"golden-{name}-{seed}") as wd:
                bench = run.Bench(name, seed, wd)
                bench.goldens = {}
                bench.generate()
                bench.warm_up()
                # A light step can precede the heavy step that makes its
                # input, so the first session may lack an output.
                for _ in range(3):
                    if set(bench.first_output) == set(OUTPUTS):
                        break
                    bench.session(defaultdict(list))
                bench.verify()
            if bench.failed or bench.errors or set(bench.first_output) != set(OUTPUTS):
                print(f"{name} seed {seed}: checks failed, nothing recorded", *bench.errors[:5], sep="\n", file=sys.stderr)
                return 1
            outputs = {k: run.sha256(v) for k, v in bench.first_output.items()}
            seed_free = {k: outputs.pop(k) for k in SEED_FREE[name]}
            if goldens[name].setdefault(run.ANY_SEED, seed_free) != seed_free:
                print(f"{name} seed {seed}: {sorted(seed_free)} differ from the first seed's", file=sys.stderr)
                return 1
            goldens[name][str(seed)] = outputs
            print(f"{name} seed {seed}: {sorted(outputs)}", flush=True)
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
