"""Record perfbench/reference.json: unit 0 of every workload at the reference seed.

    python3 perfbench/record_reference.py

The timed and traced runs compare unit 0 at the reference seed against this
file. Re-record it only when a change moves the CLI outputs on purpose.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, ROOT, WORK, invoke
from workloads import REFERENCE_SEED, WORKLOADS


def main():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sega import cli

    reference = {}
    for name, cls in WORKLOADS.items():
        workload = cls(WORK, REFERENCE_SEED)
        results = [invoke(cli.main, args) for args in workload.commands(0)]
        if any(code for code, _ in results):
            sys.exit(f"{name}: a command failed")
        view = workload.view(0, [out for _, out in results])
        errors = workload.check(0, view)
        if errors:
            sys.exit(f"{name}: " + "; ".join(errors))
        reference[name] = view
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
