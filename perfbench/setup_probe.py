"""One set-up sample: a fresh interpreter imports ``repro`` and prepares
the first unit of a workload, then prints one JSON line and exits.

    python3 perfbench/setup_probe.py WORKLOAD SEED TMPDIR

The parent times from spawning this process to reading the line; the
line carries this process's own timing of ``import repro``.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    workload, seed, tmp = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    start = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, tmp).ready()
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
