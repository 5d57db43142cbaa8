"""One set-up of a benchmark workload, run in a fresh interpreter.

Imports qkslab, generates the workload's input datasets from the workload
seed and writes them as dataset files, then prints one JSON line with the
time each step took, the times of a few host-speed reference tasks run
after them (hostspeed.py) and the SHA-256 of every file written.  run.py
starts this script several times per run, scales each set-up's time by
its own reference tasks and reports the median as ``setup_s``.

    PYTHONPATH=src python3 bench/setup_inputs.py --seed 1 --dir OUT synthetic separable

An input named ``<kind>-<k>`` is a further dataset of that kind, generated
from seed ``1000 * seed + k``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

HOSTSPEED_UNITS = 12  # reference tasks after the timed steps (hostspeed.py)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("inputs", nargs="+", help="synthetic, separable, or <kind>-<k>")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import qkslab.cli  # noqa: F401  (the import a user pays before any run)
    from qkslab import data
    import_s = time.perf_counter() - t0

    generators = {
        "synthetic": lambda seed: data.synthetic_dataset(seed, days=460),
        "separable": lambda seed: data.quantum_separable_dataset(seed, rows=460, num_features=7),
    }
    gen_s = write_s = 0.0
    files = {}
    for name in args.inputs:
        kind, _, k = name.partition("-")
        if kind not in generators or not (k == "" or k.isdigit()):
            parser.error(f"unknown input {name!r}")
        t0 = time.perf_counter()
        ds = generators[kind](args.seed if k == "" else 1000 * args.seed + int(k))
        t1 = time.perf_counter()
        path = Path(args.dir) / f"{name}.json"
        data.write_dataset(ds, path)
        t2 = time.perf_counter()
        gen_s += t1 - t0
        write_s += t2 - t1
        files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    import hostspeed  # after the timed steps: it imports numpy
    units = [hostspeed.unit() for _ in range(HOSTSPEED_UNITS)]
    print(json.dumps({"import_s": import_s, "gen_s": gen_s, "write_s": write_s,
                      "hostspeed_units": units, "files": files}))


if __name__ == "__main__":
    main()
