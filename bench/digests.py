"""Check that benchmark runs with equal workload and seed gave equal results.

    python3 bench/digests.py

Groups the ``summary.json`` files under ``.bench_out/`` by (workload,
seed), traced and untraced runs together, and exits 1 if any group holds
more than one result digest.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def main() -> int:
    groups = defaultdict(dict)
    for path in sorted(OUT.glob("*/summary.json")):
        summary = json.loads(path.read_text(encoding="utf-8"))
        groups[(summary["workload"], summary["seed"])][path.parent.name] = summary["result_digest"]
    bad = 0
    for (workload, seed), runs in sorted(groups.items()):
        agree = len(set(runs.values())) == 1
        bad += not agree
        print(f"{workload} seed={seed}: {len(runs)} run(s) "
              f"{'agree' if agree else 'DISAGREE: ' + json.dumps(runs)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
