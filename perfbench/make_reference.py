"""Write reference.json: every operation's output fingerprint at the default seed.

Run from the root of a checkout, on the version of the code whose outputs
are to become the reference:

    python3 perfbench/make_reference.py

Outputs that fail their own checks are refused.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name, build in workloads.WORKLOADS.items():
        workdir = HERE / "_work" / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = build(workloads.DEFAULT_SEED, workdir)
            reference[name] = {}
            for op in workload.ops:
                out = op.run()
                problems = op.check(out)
                if problems:
                    print(f"{name}: {problems}", file=sys.stderr)
                    return 1
                reference[name][op.label] = op.fingerprint(out)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
