"""qkslab benchmark: sweep workloads run in-process through ``qkslab.cli.main``.

    python3 bench/run.py --workload sweep-exact --seed 1 --seconds 30 --trace 0

The workload seed generates the input dataset files (see setup_inputs.py);
the program receives only those files.  A run repeats whole rounds of its
workload, each a fixed list of ``cli.main`` calls that write result files
and manifests, until another round would end after ``--seconds``.  With
``--trace 0`` only the operation timer is installed and the end-to-end
metrics are reported, their timings scaled to a reference host speed
measured during the run (hostspeed.py); with ``--trace 1`` one untraced
reference round runs first, then traced rounds give the per-layer metrics.
The last line of stdout is one JSON object; bench/README.md describes
every metric.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 3  # set-ups per run; setup_s is their median
BLAS_THREADS = "1"  # one Python thread and one BLAS thread per run
MASTER_SEED = "2025"  # the program's --seed; the workload seed changes only the input files
GRID = ("--sizes", "200,250,300,350,400", "--features", "5,6,7")
VARIABILITY_INPUTS = tuple(f"synthetic-{k}" for k in range(16))

# name -> (input datasets, one round: [(dataset, argv, EQA advantage expected)])
WORKLOADS = {
    # Criterion-7 pipeline in exact mode: six kernels on the synthetic
    # market data, then yyy against rbf on the quantum-separable data.
    "sweep-exact": (("synthetic", "separable"), [
        ("synthetic", ["sweep", *GRID, "--kernels", "z,zz,yyy,yzz,zzz,rbf", "--trials", "1"], False),
        ("separable", ["sweep", *GRID, "--kernels", "yyy,rbf", "--trials", "1"], True),
    ]),
    # Shots mode: O(N^2) compose-uncompute circuits, sampling and PSD clipping.
    "sweep-shots": (("synthetic",), [
        ("synthetic", ["sweep", "--mode", "shots", "--shots", "1024", "--kernels", "yyy",
                       "--features", "5", "--sizes", "60,80", "--trials", "1"], False),
    ]),
    # No quantum calls: many small RBF Grams and SMO problems.  SMO work
    # depends on the data (four datasets of one seed needed 27 % more
    # iterations than those of the median seed), so a round spans sixteen.
    "variability-rbf": (VARIABILITY_INPUTS, [
        (name, ["variability", "--kernel", "rbf", "--features", "5", "--size", "200",
                "--trials", "32"], False) for name in VARIABILITY_INPUTS
    ]),
}

END_TO_END_UNITS = {"kernel_evals_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
                    "setup_s": "s"}
P90_MIN_OPS = 100  # op_p90_ms is printed only when >= 10 samples lie beyond it
WARNING_KINDS = {  # count name -> text of the RuntimeWarning qkslab emits
    "svm.indefinite_warnings": "not positive semidefinite",
    "svm.nonconverged": "SMO did not reach tol",
    "metrics.f1_undefined": "F1 undefined",
}


class BenchError(RuntimeError):
    pass


class OpTimer:
    """Stands in for ``experiment.evaluate_kernels_on_subset``: times each
    operation, then checks its output outside the timing.  Timings are read
    from the host-speed clock, which stops while a reference task runs."""

    def __init__(self, qk, checks, host) -> None:
        self.qk, self.checks, self.host, self.tracer = qk, checks, host, None
        self.original = qk.experiment.evaluate_kernels_on_subset
        self.ops: list[dict] = []
        self.problems: list[str] = []
        self.check_s = 0.0

    def __call__(self, train_ds, test_ds, kernels, *args, **kwargs):
        op = {"features": train_ds.X.shape[1], "size": len(train_ds) + len(test_ds),
              "evals": len(kernels), "latency": None, "failed": True, "done": False}
        self.ops.append(op)
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.ops) - 1
            span = tracer.open("experiment.op")
        clock = self.host.clock
        t0 = op["start"] = clock()
        try:
            scores = self.original(train_ds, test_ds, kernels, *args, **kwargs)
        finally:
            op["latency"] = clock() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.op = None
        op["done"] = True

        c0 = clock()
        span = tracer.open("bench.check") if tracer is not None else None
        try:
            with _paused(tracer):
                problems = self.checks.check_operation(self.qk, train_ds, test_ds, kernels,
                                                       scores, len(self.ops) - 1)
        except Exception as exc:  # a check that cannot run fails the operation
            problems = [f"operation check raised {exc!r}"]
        finally:
            if span is not None:
                tracer.close(span)
            self.check_s += clock() - c0
        op["failed"] = bool(problems)
        self.problems.extend(problems)
        return scores


def _paused(tracer):
    """The benchmark's own checks record no spans."""
    return tracer.pause() if tracer is not None else contextlib.nullcontext()


def run_round(qk, checks, workload: str, inputs: dict, run_dir: Path, timer: OpTimer,
              tracer, caught: list) -> dict:
    """Run one round of ``cli.main`` calls; check their files and digests."""
    started = time.perf_counter()
    first_op, first_warning = len(timer.ops), len(caught)
    walls, digests = [], []
    for dataset, argv, expect_advantage in WORKLOADS[workload][1]:
        out = run_dir / f"{dataset}-{argv[0]}.json"
        table = out.with_suffix(".csv")
        call = [*argv, "--dataset", str(inputs[dataset]), "--seed", MASTER_SEED,
                "--out", str(out), "--table", str(table)]
        call_first_op = len(timer.ops)
        timer.check_s = 0.0
        span = tracer.open("cli.main") if tracer is not None else None
        t0 = timer.host.clock()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = qk.cli.main(call)
            problems = [] if code == 0 else [f"cli.main {argv[0]} exited with {code}"]
        except Exception as exc:
            problems = [f"cli.main {argv[0]} raised {exc!r}"]
        finally:
            wall = timer.host.clock() - t0 - timer.check_s
            if span is not None:
                tracer.close(span)
        walls.append(wall)
        no_advantage = {}
        if not problems:
            try:
                with _paused(tracer):
                    problems, no_advantage = checks.check_call(qk, out, expect_advantage)
                digests.append(checks.sha256(out) + checks.sha256(table))
            except Exception as exc:  # a check that cannot run fails the call
                problems = [f"result check raised {exc!r}"]
        call_ops = timer.ops[call_first_op:]
        if not call_ops:  # nothing ran: count the call as one failed operation
            call_ops = [{"features": None, "size": None, "evals": 0, "latency": None,
                         "failed": True, "done": False}]
            timer.ops.extend(call_ops)
        for op in call_ops:
            if problems or (op["features"], op["size"]) in no_advantage:
                op["failed"] = True
        timer.problems.extend(problems)
        timer.problems.extend(f"EQA advantage yyy-rbf at F={f} N={n} is {diff!r}, not > 0"
                              for (f, n), diff in no_advantage.items())
    warned = Counter()
    for w in caught[first_warning:]:
        for kind, text in WARNING_KINDS.items():
            if text in str(w.message):
                warned[kind] += 1
    return {"ops": (first_op, len(timer.ops)), "walls": walls, "warnings": warned,
            "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "elapsed": time.perf_counter() - started}


def set_up(hostspeed, workload: str, seed: int, run_dir: Path) -> dict:
    """Run SETUPS fresh set-ups; each writes the same input files.

    A set-up's time is scaled by the host-speed reference tasks it ran
    after its timed steps; ``setup_s`` is the median of the scaled times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(Path(__file__).with_name("setup_inputs.py")), "--seed", str(seed),
           "--dir", str(run_dir), *WORKLOADS[workload][0]]
    samples = []
    for _ in range(SETUPS):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150,
                              check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        sample["raw_s"] = sample["import_s"] + sample["gen_s"] + sample["write_s"]
        sample["scaled_s"] = sample["raw_s"] * hostspeed.factor(sample["hostspeed_units"])
        samples.append(sample)
    if any(s["files"] != samples[0]["files"] for s in samples):
        raise BenchError("set-ups wrote different input files from the same seed")
    return {
        "setup_s": statistics.median(s["scaled_s"] for s in samples),
        "raw_setup_s": statistics.median(s["raw_s"] for s in samples),
        "gen_s": statistics.median(s["gen_s"] for s in samples),
        "samples": samples,
        "inputs": {name: run_dir / f"{name}.json" for name in WORKLOADS[workload][0]},
    }


def provenance(qk, seed: int) -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "qkslab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=False)
        git_sha = proc.stdout.strip() or git_sha
    return {"workload_seed": seed, "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha,
            "src_sha256": source.hexdigest(), "qkslab": qk.__version__,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": _blas_threads(numpy)}


def _blas_threads(numpy):
    """Thread count OpenBLAS reports; the requested count if it cannot be asked."""
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                return int(getattr(dll, fn)())
    return f"{BLAS_THREADS} (requested)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qkslab" / "cli.py").is_file():
        print(f"error: the qkslab sources are missing ({SRC / 'qkslab'})", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import hostspeed  # imports numpy, so only after the BLAS thread count is set
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup = set_up(hostspeed, args.workload, args.seed, run_dir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(SRC))
    import qkslab
    import qkslab.cli
    import qkslab.experiment
    import checks
    import tracing

    if not Path(qkslab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported qkslab from {qkslab.__file__}, not {SRC}", file=sys.stderr)
        return 1
    if not hasattr(qkslab.experiment, "evaluate_kernels_on_subset"):
        print("error: the operation timer's target experiment.evaluate_kernels_on_subset "
              "is missing", file=sys.stderr)
        return 1

    tracer = tracing.Tracer() if args.trace else None
    host = hostspeed.HostSpeed()
    timer = OpTimer(qkslab, checks, host)
    qkslab.experiment.evaluate_kernels_on_subset = timer
    reference, rounds = None, []
    start = time.perf_counter()

    def next_round(round_tracer):
        return run_round(qkslab, checks, args.workload, setup["inputs"], run_dir, timer,
                         round_tracer, caught)

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            host.start()  # end-to-end rounds only: traced rounds keep raw times
            if tracer is not None:
                reference = next_round(None)
                host.stop()
                tracer.install_all()
                timer.tracer = tracer
            while True:
                rounds.append(next_round(tracer))
                per_round = statistics.mean(r["elapsed"] for r in rounds)
                if time.perf_counter() - start + per_round > args.seconds:
                    break
    finally:
        host.stop()
        qkslab.experiment.evaluate_kernels_on_subset = timer.original
        if tracer is not None:
            tracer.uninstall()

    expected = (reference or rounds[0])["digest"]
    for i, r in enumerate(rounds):
        if r["digest"] != expected:
            what = "traced round" if reference else "round"
            timer.problems.append(f"{what} {i} result digest {r['digest'][:16]} differs "
                                  f"from {expected[:16]}")
            for op in timer.ops[slice(*r["ops"])]:
                op["failed"] = True
    failed = sum(op["failed"] for op in timer.ops)
    prov = provenance(qkslab, args.seed)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "provenance": prov, "rounds": len(rounds), "attempted": len(timer.ops),
               "failed": failed, "problems": timer.problems[:50], "result_digest": expected,
               "setup": {k: setup[k] for k in ("setup_s", "raw_setup_s", "gen_s", "samples")},
               "hostspeed_units": host.samples,
               "ops": [[op["features"], op["size"], op["evals"], op["latency"]]
                       for op in timer.ops if op["done"]],
               "round_walls_s": [sum(r["walls"]) for r in filter(None, [reference, *rounds])]}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"seconds={time.perf_counter() - start:.1f}")
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"result_digest={expected}")
    for problem in timer.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    print(f"fail_ratio = {failed / len(timer.ops):.6g} ({failed} of {len(timer.ops)} operations)")
    # End-to-end numbers always come from untraced rounds.
    metrics, raw = end_to_end(hostspeed, timer, [reference] if reference else rounds, setup, host)
    summary.update(end_to_end=metrics, raw_end_to_end=raw, hostspeed_factor=host.factor())
    if tracer is None:
        result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in metrics.items()}
    else:
        layers = report_trace(tracing, tracer, args.workload, reference, rounds, setup, run_dir,
                              summary)
        result = {name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
                  for name, value in layers.items()}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1, default=str) + "\n",
                                          encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(timer.ops), "failed": failed,
                      "metrics": result}))
    return 0


def end_to_end(hostspeed, timer: OpTimer, measured: list, setup: dict, host) -> tuple:
    """Compute and print the end-to-end metrics of the ``measured`` rounds;
    return them and their raw values.

    Timings are scaled to the reference host speed (hostspeed.py); the raw
    wall-clock values are printed beside them.
    """
    done = [op for r in measured for op in timer.ops[slice(*r["ops"])] if op["done"]]
    latencies_ms = [op["latency"] * 1e3 for op in done]
    scaled_ms = [op["latency"] * 1e3 * host.local_factor(op["start"], op["start"] + op["latency"])
                 for op in done]
    wall = sum(sum(r["walls"]) for r in measured)
    factor = host.factor()
    raw = {
        "kernel_evals_per_s": sum(op["evals"] for op in done) / wall if wall > 0 else 0.0,
        "op_p50_ms": statistics.median(latencies_ms) if latencies_ms else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup["raw_setup_s"],
    }
    metrics = dict(raw, kernel_evals_per_s=raw["kernel_evals_per_s"] / factor,
                   op_p50_ms=statistics.median(scaled_ms) if scaled_ms else 0.0,
                   setup_s=setup["setup_s"])
    samples = {"kernel_evals_per_s": f"{len(done)} operations, {wall:.3f} s of cli.main",
               "op_p50_ms": f"n={len(latencies_ms)}",
               "peak_rss_mb": "this process", "setup_s": f"median of {SETUPS} set-ups"}
    print(f"host-speed factor = {factor:.4g} (reference task mean "
          f"{statistics.mean(host.samples) * 1e3:.4g} ms over {len(host.samples)} tasks, "
          f"reference {hostspeed.REFERENCE_UNIT_S * 1e3:g} ms)")
    for name, value in metrics.items():
        unit = END_TO_END_UNITS[name]
        print(f"{name} = {value:.6g} {unit} ({samples[name]}; raw {raw[name]:.6g} {unit})")
    if len(latencies_ms) >= P90_MIN_OPS:
        p90, raw_p90 = (statistics.quantiles(v, n=10)[-1] for v in (scaled_ms, latencies_ms))
        print(f"op_p90_ms = {p90:.6g} ms (n={len(latencies_ms)}; raw {raw_p90:.6g} ms)")
    else:
        print(f"op_p90_ms not reported: {len(latencies_ms)} operations < {P90_MIN_OPS}")
    return metrics, raw


def report_trace(tracing, tracer, workload: str, reference: dict, rounds: list, setup: dict,
                 run_dir: Path, summary: dict) -> dict:
    """Compute and print the per-layer metrics; write the trace file."""
    warned = sum((r["warnings"] for r in rounds), Counter())
    layers = tracing.layer_metrics(tracer, len(rounds), warned, setup["gen_s"])
    shares = tracing.self_shares(tracer)
    untraced = sum(reference["walls"])
    overhead = statistics.mean(sum(r["walls"]) for r in rounds) - untraced
    trace_path = run_dir / "trace.jsonl"
    tracer.write(trace_path)
    for name, value in layers.items():
        print(f"{name} = {value:.6g} {tracing.PER_LAYER[name][0]}")
    print(f"tracing overhead = {overhead:.4g} s per round "
          f"({overhead / untraced:+.2%} of the untraced round)")
    print("self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    top = next(iter(shares), None)
    predicted = {
        "variability-rbf": [
            ("0 feature_maps.build_calls and 0 simulator.simulate_calls",
             layers["feature_maps.build_calls"] == 0 and layers["simulator.simulate_calls"] == 0),
            ("svm.train has the largest self-time share", top == "svm.train"),
        ],
        "sweep-exact": [
            ("0 circuits.compose_calls", layers["circuits.compose_calls"] == 0),
            ("feature-map build + simulate has the largest self-time share", top == "state_prep"),
        ],
    }
    for what, holds in predicted.get(workload, []):
        print(f"prediction {'holds' if holds else 'DOES NOT HOLD'}: {what} "
              f"(largest share: {top})")
    for what, seconds, n, quoted in tracing.roadmap_comparisons(tracer):
        print(f"roadmap baseline: {what}: {seconds:.4g} s mean over {n} (quoted {quoted})")
    if tracer.missing:
        print("wrapped names missing (report zero calls): " + ", ".join(tracer.missing))
    for error in sorted(tracer.hook_errors):
        print(f"trace hook failed (its counts are incomplete): {error}")
    print(f"trace: {len(tracer.spans)} spans in {trace_path}")
    summary.update(per_layer=layers, self_shares=shares, tracing_overhead_s=overhead,
                   missing=tracer.missing, hook_errors=sorted(tracer.hook_errors))
    return layers


if __name__ == "__main__":
    sys.exit(main())
