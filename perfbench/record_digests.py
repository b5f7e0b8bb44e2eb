#!/usr/bin/env python3
"""Re-record ``perfbench/digests.json``: one cycle per workload for the
default and the held-out seed.

Only a change that is meant to alter simulation results re-records; a
speed-only change must leave this file untouched.  Run from the
repository root::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import TMP, configure_process


def main() -> int:
    configure_process()
    from perfbench.metrics import Tally
    from perfbench.workloads import DEFAULT_SEED, DIGESTS_FILE, HELD_OUT_SEED, WORKLOADS

    recorded = {}
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        tempfile.tempdir = tmp
        for name, workload_cls in WORKLOADS.items():
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                tally = Tally()
                workload = workload_cls(seed, tally, Path(tmp))
                workload.prepare()
                cycle = workload.cycle()
                if tally.failed:
                    print("\n".join(tally.problems), file=sys.stderr)
                    return 1
                recorded.setdefault(name, {})[str(seed)] = workload.recorded_form(cycle)
    TMP.rmdir()
    DIGESTS_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
