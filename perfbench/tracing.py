"""Traced in-process jobs: spans around the calls into each satbayes module.

The benchmark runs the same ``satbayes.cli.main`` argv as its untraced
child jobs, but in this process, after replacing the names that
``satbayes.experiment`` and ``satbayes.cli`` look up with wrappers that
record a span per call. Nothing inside the package is edited. Layers
are the modules:

* ``pipeline``: ``prepare_stacks`` (manifest load and preprocessing) and
  the label-raster, cube and model writers;
* ``classifiers``: ``build_classifier`` (fitting) and every
  ``frame_posterior`` / ``frame_likelihood`` call, timed through a
  wrapper model handed to ``classify_stack`` / ``epsilon_sweep``;
* ``recursion``: ``classify_stack`` minus the model evaluation inside
  it (update kernel, validation, MAP decision);
* ``evaluation``: ``frame_accuracies`` and ``epsilon_sweep`` minus the
  model evaluation inside it.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

MIB = float(2**20)
KERNEL_REPS = 15
KERNEL_LAMBDA = 0.8
KERNEL_EPSILON = 0.05

LAYER_UNITS = {
    "pipeline.load_s": "s",
    "pipeline.stack_mb": "MiB",
    "pipeline.write_s": "s",
    "pipeline.write_mb": "MiB",
    "classifiers.fit_s": "s",
    "classifiers.em_iters": "count",
    "classifiers.eval_s": "s",
    "classifiers.eval_calls": "count",
    "classifiers.eval_ns_per_px": "ns/px",
    "recursion.self_s": "s",
    "recursion.step_s_p50": "s",
    "recursion.step_s_p90": "s",
    "recursion.kernel_ns": "ns/px.step",
    "recursion.kernel_ns_k5": "ns/px.step",
    "recursion.cube_mb": "MiB",
    "evaluation.score_s": "s",
    "evaluation.sweep_self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}

# Spans every job of a subcommand must record; a missing one means the
# package no longer calls the wrapped name and the patch list is stale.
REQUIRED = {
    "run": {"pipeline.load", "classifiers.fit", "recursion.classify",
            "classifiers.eval", "pipeline.write", "evaluation.score"},
    "sweep": {"pipeline.load", "classifiers.fit", "evaluation.sweep",
              "classifiers.eval"},
}


class TraceError(RuntimeError):
    """The traced run could not attach to the package as expected."""


@dataclass
class Span:
    job: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class TimedModel:
    """Delegates to a classifier, recording a span per frame evaluation."""

    def __init__(self, model, tracer: Tracer) -> None:
        self._model = model
        self._tracer = tracer

    def __getattr__(self, name: str):
        attr = getattr(self._model, name)
        if name not in ("frame_posterior", "frame_likelihood"):
            return attr

        def evaluate(frame):
            with self._tracer.span("classifiers.eval"):
                return attr(frame)

        return evaluate


class Tracer:
    """In-memory span recorder that runs traced jobs of the satbayes in ``src``.

    Puts ``src`` first on ``sys.path`` and refuses any other satbayes.
    """

    def __init__(self, src: Path) -> None:
        sys.path.insert(0, str(src))
        import satbayes

        if not Path(satbayes.__file__).resolve().is_relative_to(src.resolve()):
            raise TraceError(f"imported satbayes from {satbayes.__file__}, not {src}")
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._job = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(self._job, name, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    # ---------------------------------------------------------- patching

    def _wrap(self, fn, name: str, arg: str | None, counts):
        """``fn`` inside a span; ``arg`` names a model argument to time."""
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if arg is not None:
                bound = signature.bind(*args, **kwargs)
                value = bound.arguments[arg]
                bound.arguments[arg] = (
                    {k: TimedModel(m, self) for k, m in value.items()}
                    if isinstance(value, dict) else TimedModel(value, self)
                )
                args, kwargs = bound.args, bound.kwargs
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                record.counts.update(counts(result))
            return result

        return wrapper

    @contextlib.contextmanager
    def _patched(self):
        def stack_counts(prepared):
            frames = prepared.train.frames + prepared.test.frames
            height, width = prepared.test.shape
            return {
                "stack_bytes": sum(f.image.data.nbytes for f in frames),
                "test_dates": len(prepared.test.frames),
                "pixels": height * width,
            }

        def fit_counts(model):
            traces = getattr(model, "ll_traces", ())
            return {"classes": model.num_classes,
                    "em_iters": sum(len(t) for t in traces)}

        def write_counts(path):
            return {"bytes": Path(path).stat().st_size}

        table = [  # module, attribute, span, timed model argument, counters
            ("satbayes.experiment", "prepare_stacks", "pipeline.load", None, stack_counts),
            ("satbayes.cli", "prepare_stacks", "pipeline.load", None, stack_counts),
            ("satbayes.experiment", "build_classifier", "classifiers.fit", None, fit_counts),
            ("satbayes.cli", "build_classifier", "classifiers.fit", None, fit_counts),
            ("satbayes.experiment", "classify_stack", "recursion.classify", "model", None),
            ("satbayes.cli", "epsilon_sweep", "evaluation.sweep", "models", None),
            ("satbayes.experiment", "write_label_raster", "pipeline.write", None, write_counts),
            ("satbayes.experiment", "write_posterior_cube", "pipeline.write", None, write_counts),
            ("satbayes.experiment", "save_model", "pipeline.write", None, write_counts),
            ("satbayes.experiment", "frame_accuracies", "evaluation.score", None, None),
        ]
        originals = []
        try:
            for module_name, attr, name, arg, counts in table:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    raise TraceError(f"{module_name}.{attr} no longer exists")
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, arg, counts))
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    # ---------------------------------------------------------- jobs

    def job(self, argv: list[str], command: str, log: Path) -> tuple[int, float]:
        """Run one CLI job in-process; returns (exit code, traced seconds)."""
        import satbayes.cli

        self._job += 1
        first = len(self.spans)
        output = io.StringIO()
        with self._patched(), contextlib.redirect_stdout(output), \
                contextlib.redirect_stderr(output), self.span("job") as root:
            code = satbayes.cli.main(argv)
        log.write_text(output.getvalue())
        missing = REQUIRED[command] - {s.name for s in self.spans[first:]}
        if code == 0 and missing:
            raise TraceError(f"no spans recorded for {sorted(missing)}")
        return code, root.seconds

    # ---------------------------------------------------------- metrics

    def _job_metrics(self, job: int) -> dict[str, float]:
        spans = [(i, s) for i, s in enumerate(self.spans) if s.job == job]
        children: dict[int, list[Span]] = {}
        for _, s in spans:
            children.setdefault(s.parent, []).append(s)

        def named(name):
            return [(i, s) for i, s in spans if s.name == name]

        def total(name):
            return sum(s.seconds for _, s in named(name))

        def self_time(name):
            return sum(
                s.seconds - sum(c.seconds for c in children.get(i, ()))
                for i, s in named(name)
            )

        def count(name, key):
            return sum(s.counts.get(key, 0) for _, s in named(name))

        # Recursion step: from one frame's eval return to the next frame's
        # eval call, or to the end of the enclosing call after the last.
        gaps = []
        for i, parent in named("recursion.classify") + named("evaluation.sweep"):
            evals = [c for c in children.get(i, ()) if c.name == "classifiers.eval"]
            ends = [c.start for c in evals[1:]] + [parent.end]
            gaps += [nxt - c.end for c, nxt in zip(evals, ends)]

        load = named("pipeline.load")[-1][1].counts
        fit = named("classifiers.fit")[-1][1].counts
        eval_s = total("classifiers.eval")
        eval_calls = len(named("classifiers.eval"))
        cube_bytes = 2 * load["test_dates"] * fit["classes"] * load["pixels"] * 8
        return {
            "pipeline.load_s": total("pipeline.load"),
            "pipeline.stack_mb": count("pipeline.load", "stack_bytes") / MIB,
            "pipeline.write_s": total("pipeline.write"),
            "pipeline.write_mb": count("pipeline.write", "bytes") / MIB,
            "classifiers.fit_s": total("classifiers.fit"),
            "classifiers.em_iters": count("classifiers.fit", "em_iters"),
            "classifiers.eval_s": eval_s,
            "classifiers.eval_calls": eval_calls,
            "classifiers.eval_ns_per_px": eval_s / (eval_calls * load["pixels"]) * 1e9,
            "recursion.self_s": self_time("recursion.classify"),
            "recursion.step_s_p50": float(np.percentile(gaps, 50)),
            "recursion.step_s_p90": float(np.percentile(gaps, 90)),
            "recursion.cube_mb": cube_bytes / MIB,
            "evaluation.score_s": total("evaluation.score"),
            "evaluation.sweep_self_s": self_time("evaluation.sweep"),
            "trace.total_s": total("job"),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, each the median over the traced jobs."""
        per_job = [self._job_metrics(job) for job in range(1, self._job + 1)]
        return {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def kernel_ns(k: int, mode: str, pixels: int, rng: np.random.Generator) -> float:
    """Median ns per pixel-step of `regularize` plus one update on (N, K) inputs."""
    from satbayes.core import build_transition_model
    from satbayes.recursion import discriminative_update, generative_update, regularize

    update = generative_update if mode == "generative" else discriminative_update
    transition = build_transition_model(k, KERNEL_EPSILON)
    weights = rng.random((pixels, k)) + 0.01
    weights /= weights.sum(axis=1, keepdims=True)
    state = np.full((pixels, k), 1.0 / k)
    samples = []
    for _ in range(KERNEL_REPS):
        start = time.perf_counter()
        state = update(regularize(weights, KERNEL_LAMBDA), state, transition)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / pixels * 1e9
