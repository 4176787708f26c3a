"""Command-line interface.

Subcommands map onto the batch workflow: ``synth`` writes a synthetic
stack, ``ingest`` validates a manifest, ``train`` fits and saves a
classifier, ``run`` executes one experiment, ``sweep`` scans transition
probabilities, ``bench`` times the recursion against its baseline, and
``eval`` scores prediction rasters against truth rasters.

Every command that writes files writes them through `textio.staged`,
so a command that fails leaves its ``--out`` directory as it was.

Exit codes: 0 success, 1 configuration error, 2 data error,
3 numerical error. Errors print as one ``error:`` line on stderr, and
warnings as one ``warning:`` line each.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .classifiers import save_model
from .config import CLASSIFIER_KINDS, ExperimentConfig, parse_config
from .core import build_transition_model
from .errors import ConfigError, DataError, SatBayesError
from .evaluation import (
    balanced_accuracy,
    check_epsilon_grid,
    check_repetitions,
    epsilon_sweep,
    error_map,
    timing_bench,
    write_bench_table,
    write_sweep_table,
)
from .experiment import build_classifier, prepare_stacks, run_experiment
from .pipeline import (
    open_stack,
    parse_manifest,
    read_label_raster,
    write_label_raster,
)
from .synth import generate_synthetic, parse_synth_spec
from .textio import format_float, staged, write_lines


class _Parser(argparse.ArgumentParser):
    """Routes argparse usage errors into the config-error exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="satbayes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate a stack manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="directory for the validation report")

    p = sub.add_parser("train", help="fit and save a classifier")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (default: config 'out')")
    p.add_argument("--epsilon", type=float, help="override the transition probability")

    p = sub.add_parser("sweep", help="scan transition probabilities")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", required=True, help="comma-separated increasing values")
    p.add_argument("--algos", help="comma-separated classifier kinds (default: config's)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="time recursion vs baseline")
    p.add_argument("--config", required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--algos", help="comma-separated classifier kinds (default: config's)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="score predictions against truth")
    p.add_argument("--pred", required=True, help="directory of prediction label rasters")
    p.add_argument("--truth", required=True, help="directory of truth label rasters")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a synthetic stack")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_ingest(args: argparse.Namespace) -> None:
    with staged(args.out) if args.out else nullcontext() as out:
        manifest = parse_manifest(args.manifest)
        stack = open_stack(manifest)
        for frame in stack.frames:
            frame.load()  # validates the date's planes and truth; none is kept
        truth_count = sum(1 for fr in stack.frames if fr.has_truth)
        lines = [
            f"manifest = {args.manifest}",
            f"grid = {manifest.width}x{manifest.height}",
            "bands = " + ", ".join(
                f"{name}:{format_float(res)}" for name, res in manifest.bands
            ),
            f"frames = {len(stack)}",
            f"dates = {stack.dates[0].isoformat()}..{stack.dates[-1].isoformat()}",
            f"truth_frames = {truth_count}",
            "status = ok",
        ]
        if out is not None:
            write_lines(out / "ingest_report.txt", lines)
    print("\n".join(lines))


def _cmd_train(args: argparse.Namespace) -> None:
    config = parse_config(args.config)
    if config.classifier == "external":
        raise ConfigError("classifier 'external' has nothing to train or save")
    name = Path("models") / f"{config.classifier}.model"
    with staged(args.out) as out:
        prepared = prepare_stacks(config)
        model = build_classifier(config, config.classifier, prepared.train)
        save_model(out / name, model)
    print(f"saved {Path(args.out) / name}")


def _cmd_run(args: argparse.Namespace) -> None:
    config = parse_config(args.config)
    result = run_experiment(config, out_dir=args.out, epsilon=args.epsilon)
    print(f"wrote artifacts to {result.out_dir}")
    if result.scores is not None:
        rec = float(np.mean([s.recursive for s in result.scores]))
        inst = float(np.mean([s.instantaneous for s in result.scores]))
        print(f"mean balanced accuracy: recursive={rec:.4f} instantaneous={inst:.4f}")


def _algorithms(args: argparse.Namespace, config: ExperimentConfig) -> tuple[str, ...]:
    """The --algos classifier kinds, by default the config's."""
    algos = (config.classifier,)
    if args.algos is not None:
        algos = tuple(a.strip() for a in args.algos.split(",") if a.strip())
        if not algos:
            raise ConfigError(f"--algos lists no classifier kind: {args.algos!r}")
    for kind in algos:
        if kind not in CLASSIFIER_KINDS:
            raise ConfigError(
                f"--algos: unknown classifier kind {kind!r}; "
                f"expected one of {', '.join(CLASSIFIER_KINDS)}"
            )
    return algos


def _prepare_models(config: ExperimentConfig, algos: tuple[str, ...]):
    """The test stack and a model per classifier kind."""
    prepared = prepare_stacks(config)
    models = {kind: build_classifier(config, kind, prepared.train) for kind in algos}
    return prepared.test, models


def _cmd_sweep(args: argparse.Namespace) -> None:
    config = parse_config(args.config)
    try:
        grid = tuple(float(v) for v in args.eps.split(","))
    except ValueError:
        raise ConfigError(f"bad --eps list: {args.eps!r}") from None
    check_epsilon_grid(grid)
    algos = _algorithms(args, config)
    with staged(args.out) as out:
        test, models = _prepare_models(config, algos)
        result = epsilon_sweep(test, models, config.lam, grid)
        write_sweep_table(result, out / "sweep.csv")
        summary = []
        for idx, name in enumerate(result.algorithms):
            best = result.best_epsilon(name)
            best_acc = float(np.max(result.recursive_accuracy[idx]))
            summary.append(
                f"{name}: best_epsilon = {format_float(best)} "
                f"accuracy = {format_float(best_acc)} "
                f"instantaneous = {format_float(result.instantaneous_accuracy[idx])}"
            )
        write_lines(out / "sweep_summary.txt", summary)
    print("\n".join(summary))


def _cmd_bench(args: argparse.Namespace) -> None:
    config = parse_config(args.config)
    check_repetitions(args.reps)
    algos = _algorithms(args, config)
    with staged(args.out) as out:
        test, models = _prepare_models(config, algos)
        transition = build_transition_model(len(config.classes), config.epsilon)
        records = timing_bench(test, models, transition, config.lam, repetitions=args.reps)
        write_bench_table(records, out / "bench.csv")
        step_lines = ["algorithm,step,seconds"]
        for record in records:
            step_lines += [
                f"{record.algorithm},{t + 1},{format_float(sec)}"
                for t, sec in enumerate(record.step_seconds)
            ]
        write_lines(out / "bench_steps.csv", step_lines)
    for record in records:
        print(
            f"{record.algorithm}: recursion={record.recursion_seconds:.3e}s "
            f"baseline={record.baseline_seconds:.3e}s "
            f"({record.pixels} px, {record.repetitions} reps)"
        )


def _cmd_eval(args: argparse.Namespace) -> None:
    pred_dir = Path(args.pred)
    truth_dir = Path(args.truth)
    pred_files = sorted(pred_dir.glob("*.lbl"))
    if not pred_files:
        raise DataError(f"no .lbl prediction rasters in {pred_dir}")
    with staged(args.out) as out:
        lines = ["raster,balanced_accuracy"]
        scores = []
        for pred_path in pred_files:
            truth_path = truth_dir / pred_path.name
            if not truth_path.exists():
                raise DataError(f"no matching truth raster for {pred_path.name}")
            pred = read_label_raster(pred_path)
            truth = read_label_raster(truth_path)
            score = balanced_accuracy(pred, truth)
            scores.append(score)
            lines.append(f"{pred_path.stem},{format_float(score)}")
            write_label_raster(
                out / f"error_{pred_path.stem}.lbl", error_map(pred, truth)
            )
        write_lines(out / "eval.csv", lines)
    print(f"mean balanced accuracy over {len(scores)} rasters: "
          f"{float(np.mean(scores)):.4f}")


def _cmd_synth(args: argparse.Namespace) -> None:
    spec = parse_synth_spec(args.spec)
    manifest_path = generate_synthetic(spec, args.out)
    print(f"wrote {manifest_path}")


_COMMANDS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            _COMMANDS[args.command](args)
        except SatBayesError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
