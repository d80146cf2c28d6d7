#!/usr/bin/env python3
"""Record the default-seed chunk digests that benchmarks/run.py checks.

    python3 benchmarks/record_reference.py

Run it only at a commit whose report bodies are the reference: a later
commit that changes a body on purpose (a new RNG draw contract) records
again and says so.  Writes benchmarks/reference.json.
"""

from __future__ import annotations

import json
import sys

import run

# Enough chunks for a 30-second run at the default seed on a program several
# times faster than the one recorded.
CHUNKS = 1024


def main() -> int:
    adl, _ = run.fresh_import()
    reference = {"default_seed": run.DEFAULT_SEED, "commit": run.checkout_commit(), "mc": {}}
    for name in run.MC_WORKLOADS:
        workload = run.MonteCarlo(name, None)
        digests = []
        for index in range(CHUNKS):
            _, body = workload.op(adl, run.DEFAULT_SEED, index)
            problems = workload.check(body, run.DEFAULT_SEED, index, pool=True)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            digests.append(run.body_digest(body))
        problems = workload.pooled_problems()
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        reference["mc"][name] = {"chunk_trials": workload.chunk_trials, "digests": digests}
        print(f"{name}: {len(digests)} chunks, pooled {workload.pooled}", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
