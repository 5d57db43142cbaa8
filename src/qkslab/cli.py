"""Command-line entry point wiring the modules into file-driven runs.

Every subcommand writes a ``<out>.manifest.json`` sidecar recording every
parsed argument, input digests, and output digests; ``qkslab replay``
re-executes a manifest and verifies the outputs are byte-identical.
Outputs never embed timestamps, so reruns reproduce files exactly.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (DEFAULT_DAYS, DEFAULT_FEATURES, DEFAULT_SPLIT_RATIO, ingest, label_direction,
                   read_dataset, synthetic_dataset, write_dataset)
from .documents import check_format, read_json, write_csv, write_json
from .experiment import (ConfigPoint, DEFAULT_BINS, DEFAULT_FEATURE_COUNTS, DEFAULT_SIZES,
                         ExperimentError, RESULT_FORMATS, ptri, ptri_to_doc, result_table_rows,
                         run_sweep, sweep_from_doc, sweep_to_doc, trial, variability_study,
                         variability_to_doc, write_table)
from .feature_maps import DEFAULT_REPETITIONS, PRESETS
from .kernels import SHOT_CAP, gram_matrix, quantum_config, rbf_config, resolve_gamma, write_gram
from .resources import TABLE_HEADER, verification_table
from .svm import DEFAULT_C, DEFAULT_TOL

MANIFEST_FORMAT = "qkslab-manifest"
MANIFEST_VERSION = "1.0"
_MANIFEST_FIELDS = {"command": str, "arguments": dict, "inputs": dict, "outputs": dict}

KERNEL_CHOICES = (*PRESETS, "rbf")


class CliError(RuntimeError):
    pass


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, inputs: list, outputs: list) -> None:
    """Write ``<out>.manifest.json``: every parsed argument plus input and output digests."""
    write_json({
        "format": MANIFEST_FORMAT, "version": MANIFEST_VERSION, "tool_version": __version__,
        "command": args.command,
        "arguments": {k: v for k, v in vars(args).items() if k not in ("command", "func")},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }, args.out + ".manifest.json")


def _write_result(args, doc: dict, inputs: list) -> None:
    """Write a result document to ``--out``, its CSV to ``--table`` if given, then the manifest."""
    write_json(doc, args.out)
    outputs = [args.out]
    if args.table:
        write_table(doc, args.table)
        outputs.append(args.table)
    _write_manifest(args, inputs, outputs)


def _kernels(args, names) -> list:
    """Templates of the named kernels for ``experiment.trial``; an unused kernel flag is an error."""
    names = [name.strip() for name in names]
    for name in names:
        if name not in KERNEL_CHOICES:
            raise CliError(f"unknown kernel {name!r}; choose from {KERNEL_CHOICES}")
    quantum, shots = any(name != "rbf" for name in names), args.mode == "shots"
    for flag, unused, needs in (
            ("--gamma", args.gamma is not None and "rbf" not in names, "an rbf kernel"),
            ("--mode shots", shots and not quantum, "a quantum kernel"),
            ("--reps", args.reps != DEFAULT_REPETITIONS and not quantum, "a quantum kernel"),
            ("--shots", args.shots != SHOT_CAP and not shots, "--mode shots"),
            ("--allow-overshoot", args.allow_overshoot and not shots, "--mode shots")):
        if unused:
            raise CliError(f"{flag} needs {needs}; it changes none of: {','.join(names)}")
    return [rbf_config(args.gamma, args.seed) if name == "rbf" else
            quantum_config(name, max(DEFAULT_FEATURE_COUNTS), args.reps,
                           args.shots if shots else None, args.seed, args.allow_overshoot)
            for name in names]


def _check_paths(args) -> None:
    """Refuse a command line that would write a file over one of its inputs or other outputs."""
    out = getattr(args, "out", None)
    inputs = (getattr(args, k, None) for k in ("dataset", "sweep", "input", "index", "gold"))
    seen = {Path(p).resolve() for p in inputs if p}
    for path in filter(None, (out, getattr(args, "table", None), out and out + ".manifest.json")):
        if Path(path).resolve() in seen:
            raise CliError(f"{path} names another input or output of this command")
        seen.add(Path(path).resolve())


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        values = ()
    if not values:
        raise CliError(f"expected a comma-separated integer list, got {text!r}")
    return values


# --- subcommands ---------------------------------------------------------------

def cmd_ingest(args) -> int:
    columns = DEFAULT_FEATURES if args.columns is None else tuple(args.columns.split(","))
    if args.synthetic is not None:
        if args.index or args.gold:
            raise CliError("--synthetic generates the data; drop --index and --gold")
        days = DEFAULT_DAYS if args.days is None else args.days
        ds = synthetic_dataset(args.synthetic, days, columns)
        inputs: list = []
    else:
        if not args.index or not args.gold:
            raise CliError("provide --index and --gold, or --synthetic SEED")
        if args.days is not None:
            raise CliError("--days applies to --synthetic only; CSV input keeps every joined day")
        for path in (args.index, args.gold):
            if not Path(path).exists():
                raise CliError(f"file not found: {path}")
        ds = label_direction(ingest(args.index, args.gold), feature_columns=columns)
        inputs = [args.index, args.gold]
    write_dataset(ds, args.out)
    _write_manifest(args, inputs, [args.out])
    pos = int(np.sum(ds.y == 1))
    print(f"rows={len(ds)} positive={pos} negative={len(ds) - pos} features={len(ds.feature_names)}")
    return 0


def cmd_kernel(args) -> int:
    """Write the train Gram (``--rows train``) or test-by-train cross Gram of trial 0 of the sweep
    protocol at (``--features``, ``--size``): the Gram ``sweep --seed`` scored there."""
    kernels = _kernels(args, [args.map])
    if args.no_psd_clip and not (args.mode == "shots" and args.rows == "train"):
        raise CliError("--no-psd-clip applies only to a --mode shots --rows train Gram")
    ds = read_dataset(args.dataset)
    point = ConfigPoint(args.features, args.size if args.size is not None else len(ds))
    _, train_ds, test_ds, trial_kernels = trial(ds, point, 0, args.seed, args.split_ratio, kernels)
    config = resolve_gamma(trial_kernels[args.map], train_ds.X)
    if args.rows == "train":
        gram = gram_matrix(train_ds.X, None, config, row_ids=train_ds.ids,
                           clip=not args.no_psd_clip)
    else:
        gram = gram_matrix(test_ds.X, train_ds.X, config,
                           row_ids=test_ds.ids, col_ids=train_ds.ids)
    write_gram(gram, args.out)
    _write_manifest(args, [args.dataset], [args.out])
    shape = gram.values.shape
    print(f"kernel={config.name} mode={config.mode} rows={shape[0]} cols={shape[1]} "
          f"symmetric={int(gram.symmetric)}")
    return 0


def cmd_sweep(args) -> int:
    ds = read_dataset(args.dataset)
    sizes = _parse_int_list(args.sizes)
    feature_counts = _parse_int_list(args.features)
    configs = [ConfigPoint(f, n) for f in feature_counts for n in sizes]
    sr = run_sweep(ds, configs, _kernels(args, args.kernels.split(",")), args.trials, args.seed,
                   args.split_ratio, args.c, args.tol)
    _write_result(args, sweep_to_doc(sr), [args.dataset])
    print(f"configs={len(configs)} kernels={len(sr.kernel_names)} trials={args.trials} "
          f"records={sum(len(v) for v in sr.cells.values())}")
    return 0


def cmd_ptri(args) -> int:
    sr = sweep_from_doc(read_json(args.sweep, RESULT_FORMATS), args.sweep)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    grid = ptri(sr, methods, args.metric, args.selection, args.baseline)
    _write_result(args, ptri_to_doc(grid, args.metric, args.selection, args.baseline),
                  [args.sweep])
    for method in methods:
        print(f"{method}: max_score={grid.scores[method].max():.6f}")
    return 0


def cmd_variability(args) -> int:
    ds = read_dataset(args.dataset)
    vr = variability_study(ds, ConfigPoint(args.features, args.size),
                           _kernels(args, [args.kernel])[0], args.trials,
                           args.seed, args.split_ratio, args.c, args.tol, args.bins)
    _write_result(args, variability_to_doc(vr), [args.dataset])
    print(f"trials={vr.trials} mean={vr.mean:.6f} std={vr.std:.6f}")
    return 0


def cmd_resources(args) -> int:
    feature_counts = _parse_int_list(args.features)
    reps = _parse_int_list(args.reps)
    rows = verification_table(feature_counts, reps)
    widths = [max(len(str(h)), 10) for h in TABLE_HEADER]
    print("  ".join(h.ljust(w) for h, w in zip(TABLE_HEADER, widths)))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    if args.out:
        write_csv(args.out, TABLE_HEADER, rows)
        _write_manifest(args, [], [args.out])
    if not all(row[-1] for row in rows):
        raise CliError("formula/circuit mismatch in resource verification")
    return 0


def cmd_report(args) -> int:
    doc = read_json(args.input, RESULT_FORMATS)
    header, rows = result_table_rows(doc, args.input)
    write_csv(args.out, header, rows)
    _write_manifest(args, [args.input], [args.out])
    print(f"kind={doc.get('format')} columns={len(header)} rows={len(rows)}")
    return 0


def cmd_replay(args) -> int:
    with open(args.manifest, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{args.manifest}: malformed manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise CliError(f"{args.manifest}: malformed manifest: not a JSON object")
    check_format(manifest, {MANIFEST_FORMAT: MANIFEST_VERSION}, args.manifest)
    if manifest.get("tool_version") != __version__:
        raise CliError(f"{args.manifest}: written by qkslab {manifest.get('tool_version')}, "
                       f"this is qkslab {__version__}")
    bad = [key for key, kind in _MANIFEST_FIELDS.items() if not isinstance(manifest.get(key), kind)]
    if bad:
        raise CliError(f"{args.manifest}: malformed manifest: missing or mistyped {', '.join(bad)}")
    for path, digest in manifest["inputs"].items():
        if not Path(path).exists():
            raise CliError(f"replay input missing: {path}")
        if _sha256(path) != digest:
            raise CliError(f"replay input changed since the original run: {path}")
    command = manifest["command"]
    argv = [command]
    for key, value in manifest["arguments"].items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif command == "replay":
            raise CliError("manifests of replay runs cannot be replayed")
        else:
            argv.extend([flag, str(value)])
    code = main(argv)
    if code != 0:
        return code
    mismatched = [path for path, digest in manifest["outputs"].items()
                  if _sha256(path) != digest]
    if mismatched:
        raise CliError(f"replay outputs differ from the manifest: {mismatched}")
    print(f"replayed {command}: {len(manifest['outputs'])} output file(s) byte-identical")
    return 0


# --- argument parsing -------------------------------------------------------------

def _add_trial_flags(sub) -> None:
    """The inputs of ``experiment.trial``: dataset, master seed, split and kernel templates."""
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--split-ratio", type=float, default=DEFAULT_SPLIT_RATIO)
    sub.add_argument("--reps", type=int, default=DEFAULT_REPETITIONS,
                     help="feature-map repetitions (default %(default)s)")
    sub.add_argument("--mode", choices=("exact", "shots"), default="exact")
    sub.add_argument("--shots", type=int, default=SHOT_CAP)
    sub.add_argument("--gamma", type=float, default=None,
                     help="rbf gamma; default derives 1/(F*var) from the train split")
    sub.add_argument("--allow-overshoot", action="store_true",
                     help=f"permit more than {SHOT_CAP} shots")


def _add_svm_flags(sub) -> None:
    sub.add_argument("--c", type=float, default=DEFAULT_C, help="soft-margin C (default %(default)s)")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="SMO stopping tolerance (default %(default)s)")


def _add_result_flags(sub) -> None:
    sub.add_argument("--out", required=True)
    sub.add_argument("--table", default=None, help="also write a flat CSV of the records")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qkslab",
                                     description="Quantum-kernel SVM laboratory")
    parser.add_argument("--version", action="version", version=f"qkslab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("ingest", help="parse/join CSVs (or generate synthetic data) into a dataset file")
    s.add_argument("--index", help="index CSV: Date, Price, Open, High, Low, Vol., Change %")
    s.add_argument("--gold", help="gold CSV: Date, Price")
    s.add_argument("--synthetic", type=int, default=None, metavar="SEED",
                   help="generate a deterministic synthetic dataset instead of reading CSVs")
    s.add_argument("--days", type=int, default=None,
                   help=f"days of synthetic data (default {DEFAULT_DAYS}); --synthetic only")
    s.add_argument("--columns", default=None, help="comma list of feature columns")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_ingest)

    s = subs.add_parser("kernel", help="compute and save a Gram matrix")
    _add_trial_flags(s)
    s.add_argument("--features", type=int, required=True)
    s.add_argument("--rows", choices=("train", "test"), default="train")
    s.add_argument("--size", type=int, default=None, help="subset size (default: whole dataset)")
    s.add_argument("--no-psd-clip", action="store_true",
                   help="skip eigenvalue clipping for symmetric shots-mode grams")
    s.add_argument("--map", choices=KERNEL_CHOICES, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_kernel)

    s = subs.add_parser("sweep", help="run a (features x size) configuration sweep")
    _add_trial_flags(s)
    s.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)))
    s.add_argument("--features", default=",".join(map(str, DEFAULT_FEATURE_COUNTS)))
    s.add_argument("--kernels", default="yyy,rbf", help="comma list from "
                                                        f"{KERNEL_CHOICES}")
    s.add_argument("--trials", type=int, default=10)
    _add_svm_flags(s)
    _add_result_flags(s)
    s.set_defaults(func=cmd_sweep)

    s = subs.add_parser("ptri", help="ruggedness surfaces from a saved sweep")
    s.add_argument("--sweep", required=True)
    s.add_argument("--methods", default="yyy,rbf")
    s.add_argument("--metric", choices=("balanced_accuracy", "f1"), default="balanced_accuracy")
    s.add_argument("--selection", choices=("all", "reference"), default="all")
    s.add_argument("--baseline", default=None,
                   help="kernel whose BA picks the reference trials (default: the method)")
    _add_result_flags(s)
    s.set_defaults(func=cmd_ptri)

    s = subs.add_parser("variability", help="repeated trials at one configuration point")
    _add_trial_flags(s)
    s.add_argument("--size", type=int, default=200)
    s.add_argument("--features", type=int, default=5)
    s.add_argument("--kernel", dest="kernel", choices=KERNEL_CHOICES, default="rbf")
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--bins", type=int, default=DEFAULT_BINS)
    _add_svm_flags(s)
    _add_result_flags(s)
    s.set_defaults(func=cmd_variability)

    s = subs.add_parser("resources", help="closed-form gate counts, checked against built circuits")
    s.add_argument("--features", default="2,3,4,5,6,7")
    s.add_argument("--reps", default="1,2,3")
    s.add_argument("--out", default=None, help="also write the table as CSV")
    s.set_defaults(func=cmd_resources)

    s = subs.add_parser("report", help="flatten a result file into a plot-ready CSV")
    s.add_argument("--input", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_report)

    s = subs.add_parser("replay", help="re-run a manifest and verify byte-identical outputs")
    s.add_argument("manifest")
    s.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        return args.func(args)
    except (CliError, ExperimentError, ValueError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
