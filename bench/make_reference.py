#!/usr/bin/env python3
"""Record bench/reference.json: the counts the benchmark's checks compare against.

    python3 bench/make_reference.py

Re-run only when a change is meant to alter the counts (for example a new
sampler under a new RNG_NAME), and say so in the change.  The exact type-1
count at n=5000 is copied from the frozen acceptance value in
tests/test_acceptance.py, not recomputed.
"""

from __future__ import annotations

import json
import re

import run

# types-only passes recorded at the default seed; run.py checks these passes
TYPES_REFERENCE_PASSES = 4


def frozen_type1_n5000() -> str:
    text = (run.ROOT / "tests" / "test_acceptance.py").read_text()
    block = re.search(r"TYPE1_COUNT_N5000 = int\((.*?)\)", text, re.S).group(1)
    return "".join(re.findall(r'"(\d+)"', block))


def main() -> None:
    run.load_library()
    seed = run.DEFAULT_SEED
    full = run.WORKLOADS["full-eval"]
    types = run.WORKLOADS["types-only"]
    census = run.WORKLOADS["census"]
    scan = run.run_pass(census, seed, 0).output["scan"]
    reference = {
        "default_seed": seed,
        "full-eval": {"master_seed": full.fixed_seed, "samples_per_n": full.samples_per_n,
                      "rows": run.counts(run.run_pass(full, seed, 0).output)},
        "types-only": {"samples_per_n": types.samples_per_n,
                       "passes": [run.counts(run.run_pass(types, seed, i).output)
                                  for i in range(TYPES_REFERENCE_PASSES)]},
        "census": {"scan": {str(census.scan_n): scan},
                   "count_type1": {"5000": frozen_type1_n5000()}},
    }
    text = json.dumps(reference, indent=1)
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    run.REFERENCE_PATH.write_text(text + "\n")
    print(f"wrote {run.REFERENCE_PATH.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
