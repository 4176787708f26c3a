"""End-to-end benchmark of the satbayes CLI, with an optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload index-k2-run --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every job is a fresh ``python -m satbayes.cli`` child
process, timed from spawn to exit, and the last stdout line is a JSON
object with the end-to-end metrics. With ``--trace 1`` the same job also
runs in this process with spans around the calls into each satbayes
module (see ``tracing.py``), and the JSON line carries the per-layer
metrics instead. Workloads, metrics and the cache layout are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

EPS_GRID = "0.001,0.01,0.05,0.1,0.3,0.5,0.7"
SETUP_REPS = 5
JOB_TIMEOUT_S = 150.0
LABEL_HEADER = 14  # "<4sBIIB": magic, version, width, height, classes
CUBE_HEADER = 18  # "<4sBIIBI": the label header fields plus the date count


@dataclass(frozen=True)
class Workload:
    name: str
    scene: Path  # synth spec; its seed line is replaced by --seed
    config: Path
    command: str  # satbayes subcommand: "run" or "sweep"
    kernel_k5: bool = False  # traced run also times the update kernel at K=5


WORKLOADS = {
    w.name: w
    for w in (
        Workload("index-k2-run", HERE / "scenes" / "k2.scene",
                 HERE / "configs" / "index-k2-run.cfg", "run", kernel_k5=True),
        Workload("gmm-k3-run", HERE / "scenes" / "k3.scene",
                 HERE / "configs" / "gmm-k3-run.cfg", "run"),
        Workload("logistic-k3-sweep", HERE / "scenes" / "k3.scene",
                 HERE / "configs" / "logistic-k3-sweep.cfg", "sweep"),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "pixel_dates_per_s": "px.date/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "bal_acc_rec": "fraction",
    "ok_rate": "fraction",
}


class CheckFailed(Exception):
    """A job's output is missing, malformed or wrong."""


# ============================================================
# scenes
# ============================================================


def read_kv(text: str) -> dict[str, str]:
    """Last value per key of a satbayes ``key = value`` document."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


@dataclass(frozen=True)
class Scene:
    dir: Path
    config: Path
    test_dates: tuple[str, ...]
    truth: dict[str, Path]  # date -> truth raster
    height: int
    width: int
    classes: int
    mode: str  # recursion mode of the workload's engine


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def satbayes_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "satbayes.cli", *args]


def manifest_frames(scene_dir: Path) -> dict[str, dict[str, str]]:
    """Frame date -> {"truth" or band name: relative path}, from manifest.txt."""
    frames = {}
    for line in (scene_dir / "manifest.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "frame":
            date, *items = value.split()
            frames[date] = dict(item.split("=", 1) for item in items)
    return frames


def synth(spec_text: str, out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)  # left over from an interrupted run
    out.mkdir(parents=True)
    (out / "scene.txt").write_text(spec_text)
    subprocess.run(
        satbayes_cmd("synth", "--spec", str(out / "scene.txt"), "--out", str(out)),
        env=child_env(), check=True, stdout=subprocess.DEVNULL,
        timeout=JOB_TIMEOUT_S,
    )


def prepare_scene(workload: Workload, seed: int, build: Path) -> Scene:
    """Generate (or reuse) the seeded scene and copy the config beside it.

    Frames on the config's training dates come from the spec's own seed,
    so fit cost does not depend on --seed; every other frame is drawn
    from --seed. Only the latest seed of each spec is kept on disk.
    """
    spec = workload.scene.read_text()
    seeded, count = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", spec)
    if count != 1:
        raise SystemExit(f"{workload.scene}: expected one 'seed =' line")
    config_text = workload.config.read_text()
    config = read_kv(config_text)
    train_dates = split_list(config.get("train_dates", ""))
    scenes = build / "scenes"
    stem = workload.scene.stem
    key = hashlib.sha256(",".join(train_dates).encode()).hexdigest()[:8]
    target = scenes / f"{stem}-s{seed}-{key}"
    if not target.exists():
        for old in scenes.glob(f"{stem}-s*"):
            shutil.rmtree(old)
        partial = scenes / f"{target.name}.partial"
        synth(seeded, partial)
        if train_dates:
            ref = scenes / f"{stem}-ref"
            if not ref.exists():
                synth(spec, scenes / f"{stem}-ref.partial")
                (scenes / f"{stem}-ref.partial").rename(ref)
            frames = manifest_frames(partial)
            for date in train_dates:
                for rel in frames[date].values():
                    shutil.copyfile(ref / rel, partial / rel)
        partial.rename(target)
    cfg_path = target / workload.config.name
    cfg_path.write_text(config_text)
    spec_kv = read_kv(seeded)
    frames = manifest_frames(target)
    classifier = config["classifier"]
    default_mode = "generative" if classifier == "gmm" else "discriminative"
    test_dates = tuple(split_list(config["test_dates"]))
    return Scene(
        dir=target,
        config=cfg_path,
        test_dates=test_dates,
        truth={d: target / frames[d]["truth"] for d in test_dates},
        height=int(spec_kv["height"]),
        width=int(spec_kv["width"]),
        classes=len(split_list(config["classes"])),
        mode=config.get("mode", default_mode),
    )


def job_argv(workload: Workload, scene: Scene, out: Path) -> list[str]:
    argv = [workload.command, "--config", str(scene.config), "--out", str(out)]
    if workload.command == "sweep":
        argv += ["--eps", EPS_GRID]
    return argv


def work_units(workload: Workload, scene: Scene) -> int:
    """Test pixels x test dates x grid points of one job."""
    grid = len(EPS_GRID.split(",")) if workload.command == "sweep" else 1
    return scene.height * scene.width * len(scene.test_dates) * grid


# ============================================================
# output checks
# ============================================================


def balanced_accuracy(pred: np.ndarray, truth: np.ndarray, k: int) -> float:
    counts = np.bincount(truth.astype(np.int64) * k + pred, minlength=k * k)
    matrix = counts.reshape(k, k)
    present = np.flatnonzero(matrix.sum(axis=1))
    return float(np.mean(matrix[present, present] / matrix[present].sum(axis=1)))


def read_labels(path: Path, scene: Scene) -> np.ndarray:
    blob = path.read_bytes()
    if len(blob) != LABEL_HEADER + scene.height * scene.width:
        raise CheckFailed(f"{path.name}: {len(blob)} bytes")
    labels = np.frombuffer(blob, dtype=np.uint8, offset=LABEL_HEADER)
    if labels.max() >= scene.classes:
        raise CheckFailed(f"{path.name}: label {labels.max()} out of range")
    return labels


def read_csv_rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise CheckFailed(f"missing {path.name}")
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def check_run(out: Path, scene: Scene) -> float:
    """Validate a ``run`` artifact tree; returns the mean recursive score.

    The recursive and instantaneous scores are recomputed here from the
    label rasters and the scene's truth, and must match accuracy.csv.
    """
    t, k, px = len(scene.test_dates), scene.classes, scene.height * scene.width
    for name in ("recursive", "instantaneous"):
        cube = out / "posteriors" / f"{name}.cube"
        size = cube.stat().st_size if cube.is_file() else None
        if size != CUBE_HEADER + t * k * px * 4:
            raise CheckFailed(f"{cube.name}: size {size}")
    run_txt = out / "run.txt"
    if not run_txt.is_file() or f"test_frames = {t}\n" not in run_txt.read_text():
        raise CheckFailed("run.txt missing or wrong test_frames")
    rows = {row[0]: row for row in read_csv_rows(out / "metrics" / "accuracy.csv")}
    rec, inst = [], []
    for date in scene.test_dates:
        truth = read_labels(scene.truth[date], scene)
        scores = []
        for track in ("recursive", "instantaneous"):
            path = out / "labels" / f"{track}_{date}.lbl"
            if not path.is_file():
                raise CheckFailed(f"missing {path.name}")
            scores.append(balanced_accuracy(read_labels(path, scene), truth, k))
        if date not in rows:
            raise CheckFailed(f"accuracy.csv has no row for {date}")
        reported = [float(v) for v in rows[date][1:3]]
        if not np.allclose(reported, scores, rtol=0.0, atol=1e-12):
            raise CheckFailed(f"{date}: reported {reported}, recomputed {scores}")
        rec.append(scores[0])
        inst.append(scores[1])
    if len(rows) != t:
        raise CheckFailed(f"accuracy.csv has {len(rows)} rows, expected {t}")
    mean_rec, mean_inst = float(np.mean(rec)), float(np.mean(inst))
    if not mean_rec > mean_inst:
        raise CheckFailed(f"recursive {mean_rec} <= instantaneous {mean_inst}")
    return mean_rec


def check_sweep(out: Path, scene: Scene) -> float:
    """Validate a ``sweep`` output; returns the best grid point's score."""
    rows = read_csv_rows(out / "sweep.csv")
    grid = [float(e) for e in EPS_GRID.split(",")]
    if [float(row[0]) for row in rows] != grid:
        raise CheckFailed(f"sweep.csv grid {[row[0] for row in rows]}")
    scores = [float(row[2]) for row in rows]
    if not all(0.0 < s <= 1.0 for s in scores):
        raise CheckFailed(f"sweep.csv scores out of range: {scores}")
    summary = out / "sweep_summary.txt"
    match = summary.is_file() and re.search(
        r"instantaneous = (\S+)", summary.read_text()
    )
    if not match:
        raise CheckFailed("sweep_summary.txt missing or malformed")
    best, inst = max(scores), float(match.group(1))
    if not best > inst:
        raise CheckFailed(f"best recursive {best} <= instantaneous {inst}")
    return best


def check_output(workload: Workload, out: Path, scene: Scene) -> float:
    if workload.command == "run":
        return check_run(out, scene)
    return check_sweep(out, scene)


# ============================================================
# jobs
# ============================================================


@dataclass(frozen=True)
class Job:
    wall_s: float
    rss_mb: float
    score: float | None  # None when the job failed
    error: str = ""


def run_child(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one CLI job; returns (exit code, wall seconds, peak RSS MiB).

    The child is reaped with ``wait4`` so its own peak RSS is read, not
    the maximum over every child this process ever had.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            satbayes_cmd(*argv), cwd=ROOT, env=child_env(),
            stdout=sink, stderr=subprocess.STDOUT,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], JOB_TIMEOUT_S)[0]:
                proc.kill()
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def finish_job(workload: Workload, scene: Scene, out: Path, log: Path,
               code: int, wall: float, rss: float) -> Job:
    try:
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            raise CheckFailed(f"exit code {code}: {' | '.join(tail)}")
        score = check_output(workload, out, scene)
    except (CheckFailed, OSError, ValueError, IndexError) as exc:
        return Job(wall, rss, None, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Job(wall, rss, score)


def child_job(workload: Workload, scene: Scene, build: Path) -> Job:
    out = build / "out" / workload.name
    log = build / "logs" / f"{workload.name}.log"
    shutil.rmtree(out, ignore_errors=True)
    code, wall, rss = run_child(job_argv(workload, scene, out), log)
    return finish_job(workload, scene, out, log, code, wall, rss)


def traced_job(tracer, workload: Workload, scene: Scene, build: Path) -> Job:
    out = build / "out" / workload.name
    log = build / "logs" / f"{workload.name}-traced.log"
    shutil.rmtree(out, ignore_errors=True)
    code, seconds = tracer.job(job_argv(workload, scene, out), workload.command, log)
    return finish_job(workload, scene, out, log, code, seconds, 0.0)


def measure_setup(reps: int) -> list[float]:
    """Seconds for a fresh interpreter to import satbayes.cli, per rep."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import satbayes.cli"],
            cwd=ROOT, env=child_env(), check=True, timeout=JOB_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - start)
    return samples


def mark_repeats(jobs: list[Job]) -> list[Job]:
    """Fail every job whose score differs from the first passing job's."""
    scores = [j.score for j in jobs if j.score is not None]
    return [
        j if j.score is None or j.score == scores[0]
        else Job(j.wall_s, j.rss_mb, None, f"score {j.score} != {scores[0]}")
        for j in jobs
    ]


# ============================================================
# reporting
# ============================================================


def supported_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples above it."""
    return int(100 * (n - 10) // n) if n >= 20 else None


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment(seed: int) -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "seed": seed,
    }


def end_to_end(workload: Workload, scene: Scene, jobs: list[Job],
               setup: list[float]) -> dict[str, float]:
    passed = [j for j in jobs if j.score is not None]
    if not passed:
        return {}
    units = work_units(workload, scene)
    return {
        "wall_s": statistics.median(j.wall_s for j in passed),
        "pixel_dates_per_s": statistics.median(units / j.wall_s for j in passed),
        "peak_rss_mb": statistics.median(j.rss_mb for j in passed),
        "setup_s": statistics.median(setup),
        "bal_acc_rec": passed[0].score,
        "ok_rate": len(passed) / len(jobs),
    }


def describe_timing(name: str, values: list[float], unit: str) -> str:
    n = len(values)
    text = f"{name}: median {statistics.median(values):.4f} {unit}, n={n}"
    pct = supported_percentile(n)
    if pct is None:
        return text + "; no percentile above the median has 10 samples beyond it"
    value = float(np.percentile(values, pct))
    return text + f", p{pct} {value:.4f} {unit}"


# ============================================================
# entry point
# ============================================================


def layer_metrics(tracer, workload: Workload, scene: Scene, seed: int,
                  e2e: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of the traced jobs plus the kernel timings."""
    import tracing

    layer = tracer.layer_metrics()
    rng = np.random.default_rng(seed)
    pixels = scene.height * scene.width
    layer["recursion.kernel_ns"] = tracing.kernel_ns(
        scene.classes, scene.mode, pixels, rng
    )
    layer["recursion.kernel_ns_k5"] = (
        tracing.kernel_ns(5, scene.mode, pixels, rng) if workload.kernel_k5 else 0.0
    )
    layer["trace.overhead_s"] = e2e["wall_s"] - (layer["trace.total_s"] + e2e["setup_s"])
    return layer


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  build: Path, setup_reps: int) -> dict:
    """One benchmark run; returns the result object printed as JSON.

    Writes a report (environment, raw samples, metrics) and, when traced,
    the spans under ``build``, and prints a readable summary.
    """
    for sub in ("out", "logs", "scenes"):
        (build / sub).mkdir(parents=True, exist_ok=True)
    scene = prepare_scene(workload, seed, build)
    setup = measure_setup(setup_reps)
    start = time.perf_counter()
    jobs = [child_job(workload, scene, build)]
    if trace:
        import tracing

        tracer = tracing.Tracer(SRC)
        while len(jobs) < 2 or time.perf_counter() - start < seconds:
            jobs.append(traced_job(tracer, workload, scene, build))
    else:
        while time.perf_counter() - start < seconds:
            jobs.append(child_job(workload, scene, build))
    jobs = mark_repeats(jobs)
    untraced = jobs[:1] if trace else jobs
    failed = sum(j.score is None for j in jobs)
    e2e = end_to_end(workload, scene, untraced, setup)
    if not trace:
        metrics, units = e2e, END_TO_END_UNITS
    else:
        metrics = layer_metrics(tracer, workload, scene, seed, e2e) if not failed else {}
        units = tracing.LAYER_UNITS
        spans = build / f"spans-{workload.name}-s{seed}.json"
        spans.write_text(json.dumps(tracer.dump()))

    env = environment(seed)
    env["samples"] = {"setup": len(setup), "untraced_jobs": len(untraced),
                      "traced_jobs": len(jobs) - len(untraced)}
    report = {"workload": workload.name, "env": env, "setup_samples_s": setup,
              "jobs": [j.__dict__ for j in jobs], "end_to_end": e2e}
    if trace:
        report["per_layer"] = metrics
    name = f"report-{workload.name}-s{seed}-trace{int(trace)}.json"
    (build / name).write_text(json.dumps(report, indent=1))

    print(f"env {json.dumps(env)}")
    print(describe_timing("wall_s", [j.wall_s for j in untraced], "s"))
    print(describe_timing("setup_s", setup, "s"))
    for j in jobs:
        if j.error:
            print(f"FAILED job: {j.error}")
    for key, value in metrics.items():
        print(f"{key:28s} {value:14.6g} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "satbayes" / "cli.py").is_file():
        print(f"error: no satbayes source tree at {SRC}", file=sys.stderr)
        return 2
    result = run_benchmark(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        BUILD, SETUP_REPS,
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
