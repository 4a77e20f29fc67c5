"""Record the bit-exact reference outputs the benchmark checks against.

    python3 bench/record_reference.py

Runs the cli-pinned configs at every size and the default-seed sweep
scenarios at both sizes and writes their digests (SHA-256 of trace.csv
and summary.csv; of the per-scenario summaries and verdicts) to
bench/reference.json.
Re-record only for a change that is meant to alter these outputs, and
say why in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    ref = {}
    runs = [("cli-pinned", size) for size in (*workloads.SIZES, "pinned")]
    runs += [("sweep", size) for size in workloads.SIZES]
    for name, size in runs:
        ops = workloads.build(name, workloads.DEFAULT_SEED, size,
                              HERE / ".work" / "record")
        for op in ops:
            if op.reset is not None:
                op.reset()
            ref[op.key] = op.digest(op.run())
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True)
                                   + "\n")
    print(f"wrote {len(ref)} references to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
