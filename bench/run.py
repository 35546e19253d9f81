"""End-to-end benchmark of the xgkn pipeline.

    python3 bench/run.py --workload w2-ba2-onehot --seed 1 --seconds 60 --trace 0

Runs the five CLI stages (prepare, train, explain, evaluate, report), each
as its own ``python -m xgkn.cli <stage>`` process, one after the other: a
closed loop with one client. The pipeline is repeated on the same inputs
until ``--seconds`` are used up; a throughput is the work of all repetitions
over their summed wall time. Every stage process is preceded by a run of
``calibrate.py``, and the end-to-end times are scaled to the reference
machine speed by the run's mean calibration time. Each stage's outputs are
checked, and the artifacts of every repetition must be byte-identical to the
first.

With ``--trace 0`` the last output line reports the end-to-end metrics. With
``--trace 1`` untraced and traced repetitions alternate, and the last line
reports the per-layer metrics; the traced stages run under ``tracer.py``.
The last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A record of the run (environment, per-stage
times, artifact digests) is written to ``.bench_runs/`` at the repo root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

sys.path.insert(0, str(BENCH_DIR))
from spans import LAYER_METRICS, STAGES, layer_metrics  # noqa: E402

PER_LAYER = LAYER_METRICS + (("model.evaluate_accuracy.value", "ratio"),
                             ("metrics.A1.value", "ratio"))

# One BLAS/OpenMP thread per stage process: the load is one client and the
# machine this was tuned on has two cores shared with other work.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HARD_LIMIT_S = 165.0  # a run must end within 180 s, whatever --seconds says
MIN_UNTRACED = 2  # untraced pipelines per run, at the least
SETUP_RUNS = 3  # prepare runs before the pipelines; one more follows each pipeline
MAX_SEED_DRAWS = 20
# The mean wall time of calibrate.py on the machine the benchmark was tuned on
# (a 2-core x86-64 VM). End-to-end times are reported as if every calibration
# of the run had taken this long: raw time * REFERENCE_CALIBRATION_S / mean
# calibration time of the run.
REFERENCE_CALIBRATION_S = 0.5
AIM_METRICS = ("A1", "A2", "I1", "I2", "I3", "I4", "I5", "M1", "M2", "M3")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# The README model: 8 filters of 6 nodes, radius-1 neighbourhoods of at most
# 5 nodes, negative-entropy aggregation.
MODEL = {"num_filters": 8, "filter_size": 6, "embed_dim": 16, "hop_radius": 1,
         "max_subgraph_size": 5, "agg_mode": "negative_entropy"}

# One grid point: the threshold a seed's selection picks sets the size of every
# explanation, and so the cost of evaluate, which would then vary by seed. At
# 0.5 and below, constant features leave tie groups that select whole graphs,
# which gives I2 no node to drop; at 0.7 none did, over sixteen trained models.
THRESHOLD_GRID = [0.7]

# Each workload makes one layer do most of the work; README.md says why. Half
# of the graphs are test graphs, so that explain and evaluate average over
# many graphs and A2's per-model GED cost, which moves with the trained
# filters, is a small share of evaluate. w3 samples fewer subgraphs per graph
# (I1, I2 and its i1+i2 selection) and takes more graphs instead, for the
# same reason.
WORKLOADS = {
    "w2-ba2-onehot": {"dataset": {"kind": "ba2motifs", "n_graphs": 48,
                                  "feature_policy": "degree_onehot"},
                      "epochs": 50, "criterion": "auto", "samples_per_graph": 4},
    "w3-ba2-i1i2": {"dataset": {"kind": "ba2motifs", "n_graphs": 64},
                    "epochs": 40, "criterion": "i1+i2", "samples_per_graph": 2},
}
TEST_FRACTION = 0.5
MODEL_SEEDS = 2  # the fewest for which I5 (consistency across seeds) exists

# name -> (unit, better); BENCHMARK.json carries the bounds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_graphs_per_s": ("graphs/s", "higher"),
    "explain_graphs_per_s": ("graphs/s", "higher"),
    "evaluate_graphs_per_s": ("graphs/s", "higher"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_ratio": ("ratio", "higher"),
}


def valid_name(name: str) -> bool:
    """Metric and workload names: a letter or digit, then at most 63 more
    letters, digits, ``_``, ``.`` or ``-``."""
    return NAME_RE.fullmatch(name) is not None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median
    (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def workload_config(name: str, seed: int, attempt: int = 0) -> dict:
    """The xgkn config of one workload. The dataset seed and the model seeds
    are derived from ``seed``; each ``attempt`` draws other model seeds."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    dataset_seed = rng.randrange(1 << 30)
    for _ in range(attempt + 1):
        seeds = sorted(rng.sample(range(10_000), MODEL_SEEDS))
    return {
        "dataset": {**spec["dataset"], "seed": dataset_seed},
        "model": dict(MODEL),
        "train": {"epochs": spec["epochs"], "lr": 0.01, "weight_decay": 1e-4,
                  "batch_size": 64, "patience": spec["epochs"]},
        "split": {"test_fraction": TEST_FRACTION},
        "threshold": {"criterion": spec["criterion"], "grid": list(THRESHOLD_GRID)},
        "aim": {"samples_per_graph": spec["samples_per_graph"]},
        "seeds": seeds,
        "out_dir": "out",
    }


# ---------------------------------------------------------------------------
# one stage process

@dataclass
class StageRun:
    stage: str
    wall_s: float
    rss_mb: float
    returncode: int
    calib_s: float = 0.0  # wall time of the calibrate.py run just before
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.problems)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("XGKN_OUT_ROOT", None)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def run_process(cmd: list, cwd: Path, log_path: Path, timeout: float) -> tuple[float, float, int]:
    """Run ``cmd`` to completion; returns wall seconds, the child's own peak
    RSS in MB and its exit code. The child is killed after ``timeout``."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


# ---------------------------------------------------------------------------
# output checks

def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _hash_problems(out: Path, names: list) -> list:
    expected = _load(out / "config.json")["config_hash"]
    problems = []
    for name in names:
        found = _load(out / name).get("config_hash")
        if found != expected:
            problems.append(f"{name} carries config hash {found}, expected {expected}")
    return problems


def check_stage(stage: str, out: Path, config: dict) -> list:
    """Problems with the artifacts ``stage`` left in ``out`` (empty if none)."""
    seeds = config["seeds"]
    try:
        if stage == "prepare":
            return _hash_problems(out, ["dataset.json", "splits.json", "config.json"])
        if stage == "train":
            return _hash_problems(out, [f"checkpoint_seed{s}.json" for s in seeds])
        if stage == "explain":
            problems = _hash_problems(out, ["thresholds.json"])
            splits = _load(out / "splits.json")["splits"]
            for seed, split in zip(seeds, splits):
                lines = (out / f"explanations_seed{seed}.jsonl").read_text().splitlines()
                ids = [json.loads(line)["graph_id"] for line in lines if line.strip()]
                if sorted(ids) != sorted(split["test_ids"]):
                    problems.append(f"explanations of seed {seed} do not cover the test split")
            return problems
        if stage == "evaluate":
            problems = _hash_problems(out, ["report.json"])
            metrics = _load(out / "report.json")["metrics"]
            for name in ("accuracy",) + AIM_METRICS:
                entry = metrics.get(name)
                if entry is None:
                    problems.append(f"report.json lacks {name}")
                    continue
                values = [entry["mean"]] + list(entry["values"])
                if not all(0.0 <= v <= 1.0 for v in values):
                    problems.append(f"report.json {name} outside [0, 1]: {values}")
            return problems
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"{stage} outputs unreadable: {err!r}"]
    return []


def digest_files(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in sorted(names) if name != "run.log"}


# ---------------------------------------------------------------------------
# one pipeline

@dataclass
class Pipeline:
    traced: bool
    stages: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.stages)

    @property
    def complete(self) -> bool:
        return len(self.stages) == len(STAGES) and not self.failed

    @property
    def pipeline_s(self) -> float:
        return sum(s.wall_s for s in self.stages)


def work_done(out: Path, config: dict) -> dict:
    """Graphs each stage worked on in one pipeline: epochs run (rows of the
    history files) times train-split size, and test graphs, over all seeds."""
    splits = _load(out / "splits.json")["splits"]
    trained = tested = 0
    for seed, split in zip(config["seeds"], splits):
        with open(out / f"history_seed{seed}.csv", encoding="utf-8") as fh:
            epochs = sum(1 for _ in fh) - 1
        trained += epochs * len(split["train_ids"])
        tested += len(split["test_ids"])
    return {"train_graphs": trained, "test_graphs": tested}


def speed_factor(runs: list) -> float:
    """How much slower the machine ran than the reference during these
    stage runs: their mean calibration time over REFERENCE_CALIBRATION_S."""
    return statistics.mean(r.calib_s for r in runs) / REFERENCE_CALIBRATION_S


def end_to_end_metrics(pipelines: list, runs: list, factor: float = 1.0) -> dict:
    """End-to-end values of a run, with every wall time divided by
    ``factor`` (``speed_factor``). A throughput is the work of every
    repetition over their summed stage wall time; ``pipeline_s`` is the mean
    repetition; ``setup_s`` the median of every ``prepare`` run."""
    def total(key):
        return sum(p.values[key] for p in pipelines)

    def wall(stage):
        return sum(s.wall_s for p in pipelines for s in p.stages if s.stage == stage) / factor

    prepares = [r.wall_s for r in runs if r.stage == "prepare" and not r.failed]
    return {
        "setup_s": statistics.median(prepares) / factor if prepares else None,
        "train_graphs_per_s": total("train_graphs") / wall("train"),
        "explain_graphs_per_s": total("test_graphs") / wall("explain"),
        "evaluate_graphs_per_s": total("test_graphs") / wall("evaluate"),
        "pipeline_s": statistics.mean(p.pipeline_s for p in pipelines) / factor,
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "pass_ratio": sum(not r.failed for r in runs) / len(runs),
    }


def result_values(out: Path) -> dict:
    """What the pipeline computed, as per-layer values: these are fixed for a
    given seed, so they show a change that alters results."""
    report = _load(out / "report.json")["metrics"]
    return {"model.evaluate_accuracy.value": report["accuracy"]["mean"],
            "metrics.A1.value": report["A1"]["mean"]}


def run_stage(stage: str, work: Path, config: dict, traced: bool,
              deadline: float) -> tuple[StageRun, dict | None]:
    """Run one stage in ``work`` and check its outputs. Returns the run and,
    for a traced stage, the tracer's spans payload."""
    out = work / config["out_dir"]
    spans_path = work / f"spans_{stage}.json"
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path)]
    else:
        cmd = [sys.executable, "-m", "xgkn.cli"]
    cmd += [stage, "-c", "config.json"]
    before = set(os.listdir(out)) if out.is_dir() else set()
    timeout = max(1.0, deadline - time.perf_counter())
    calib_s, _, calib_code = run_process([sys.executable, str(BENCH_DIR / "calibrate.py")],
                                         work, work / "calibrate.log", timeout)
    if calib_code != 0:
        run = StageRun(stage, 0.0, 0.0, calib_code)
        run.problems.append(f"calibrate.py exited {calib_code} before {stage}")
        return run, None
    timeout = max(1.0, deadline - time.perf_counter())
    wall, rss, code = run_process(cmd, work, work / f"{stage}.log", timeout)
    run = StageRun(stage, wall, rss, code, calib_s)
    if code != 0:
        tail = (work / f"{stage}.log").read_text(errors="replace")[-2000:]
        run.problems.append(f"{stage} exited {code}: {tail}")
        return run, None
    run.problems.extend(check_stage(stage, out, config))
    run.digests = digest_files(out, set(os.listdir(out)) - before)
    return run, (_load(spans_path) if traced else None)


def _new_workdir(path: Path, config: dict) -> Path:
    path.mkdir(parents=True)
    (path / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


def run_pipeline(config: dict, work: Path, traced: bool, deadline: float) -> Pipeline:
    """Run the five stages in ``work``, check each stage's outputs and
    compute the pipeline's metric values."""
    _new_workdir(work, config)
    result = Pipeline(traced=traced)
    spans, missing = {}, set()
    for stage in STAGES:
        run, payload = run_stage(stage, work, config, traced, deadline)
        result.stages.append(run)
        if run.problems:
            return result
        if payload is not None:
            spans[stage] = payload["spans"]
            missing.update(payload["missing"])
    out = work / config["out_dir"]
    if traced:
        result.values = layer_metrics(spans, {s.stage: s.wall_s for s in result.stages},
                                      missing)
    else:
        result.values = work_done(out, config)
    result.values.update(result_values(out))
    return result


def _test_splits_overlap(splits_path: Path) -> bool:
    splits = _load(splits_path)["splits"]
    return any(set(a["test_ids"]) & set(b["test_ids"])
               for i, a in enumerate(splits) for b in splits[i + 1:])


def repeat_prepare(config: dict, work: Path, reference: StageRun, deadline: float) -> StageRun:
    """One more ``prepare`` run for ``setup_s``; its artifacts must match
    ``reference``'s."""
    run, _ = run_stage("prepare", _new_workdir(work, config), config, False, deadline)
    if run.digests != reference.digests and not run.problems:
        run.problems.append("prepare artifacts differ between repeats")
    return run


def set_up(workload: str, seed: int, work_root: Path, deadline: float):
    """Run ``prepare`` SETUP_RUNS times for the workload and return its config
    and the prepare runs. The first runs also fix the model seeds: I5 compares
    the seeds' explanations on the test graphs their splits share, so model
    seeds are redrawn until two test splits overlap."""
    runs = []
    for attempt in range(MAX_SEED_DRAWS):
        config = workload_config(workload, seed, attempt)
        work = _new_workdir(work_root / f"setup{attempt}", config)
        run, _ = run_stage("prepare", work, config, False, deadline)
        runs.append(run)
        if run.problems:
            return config, runs
        if _test_splits_overlap(work / config["out_dir"] / "splits.json"):
            break
    else:
        runs[-1].problems.append(f"no test splits overlap in {MAX_SEED_DRAWS} seed draws")
        return config, runs
    for i in range(SETUP_RUNS - 1):
        runs.append(repeat_prepare(config, work_root / f"setup-repeat{i}", runs[-1], deadline))
        if runs[-1].problems:
            break
    return config, runs


def compare_digests(reference: Pipeline, p: Pipeline) -> None:
    """Mark each stage of ``p`` whose artifacts differ from ``reference``."""
    for ref, run in zip(reference.stages, p.stages):
        if run.digests != ref.digests:
            differ = sorted(k for k in set(ref.digests) | set(run.digests)
                            if ref.digests.get(k) != run.digests.get(k))
            run.problems.append(f"{run.stage} artifacts differ from the first run: {differ}")


# ---------------------------------------------------------------------------
# entry point

def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {var: THREADS for var in THREAD_VARS},
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _median(pipelines: list, name: str):
    values = [p.values[name] for p in pipelines if p.values.get(name) is not None]
    return statistics.median(values) if values else None


def benchmark(workload: str, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    """Set up, then repeat the pipeline for ``seconds``; returns the result."""
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    config, setup_runs = set_up(workload, seed, work_root, deadline)
    pipelines: list[Pipeline] = []
    took = {False: [], True: []}  # seconds per loop round, by traced
    while not any(r.failed for r in setup_runs):
        round_start = time.perf_counter()
        traced = trace and len(pipelines) % 2 == 1
        p = run_pipeline(config, work_root / f"run{len(pipelines)}", traced, deadline)
        if pipelines:
            compare_digests(pipelines[0], p)
        pipelines.append(p)
        shutil.rmtree(work_root / f"run{len(pipelines) - 1}")
        if p.failed:
            break
        # set-up is short, so it is sampled again after every pipeline
        extra = work_root / f"prepare{len(pipelines)}"
        setup_runs.append(repeat_prepare(config, extra, setup_runs[-1], deadline))
        shutil.rmtree(extra)
        if setup_runs[-1].failed:
            break
        now = time.perf_counter()
        took[traced].append(now - round_start)
        n_untraced = len(took[False])
        if trace:
            enough = 0 < n_untraced < len(pipelines)
        else:
            enough = n_untraced >= MIN_UNTRACED
        next_traced = trace and len(pipelines) % 2 == 1
        expected = statistics.median(took[next_traced] or took[traced])
        if now + expected > deadline or (enough and now + expected > start + seconds):
            break
    runs = setup_runs + [s for p in pipelines for s in p.stages]
    attempted = len(runs)
    failed = sum(r.failed for r in runs)
    untraced = [p for p in pipelines if not p.traced and p.complete]
    traced = [p for p in pipelines if p.traced and p.complete]
    factor = speed_factor(setup_runs + [s for p in untraced for s in p.stages])
    raw = end_to_end_metrics(untraced, runs) if untraced else {}
    if trace:
        metrics = {name: (_median(traced, name), unit) for name, unit in PER_LAYER}
        if traced and untraced:
            ratio = (statistics.median(p.pipeline_s for p in traced)
                     / statistics.median(p.pipeline_s for p in untraced))
            metrics["trace.overhead_ratio"] = (ratio, "ratio")
    else:
        values = end_to_end_metrics(untraced, runs, factor) if untraced else {}
        metrics = {name: (values.get(name), unit) for name, (unit, _) in END_TO_END.items()}
    return {
        "correct": failed == 0 and bool(untraced) and (not trace or bool(traced)),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "speed_factor": factor,
        "raw": raw,
        "setup": setup_runs,
        "pipelines": pipelines,
        "config": config,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xgkn" / "cli.py").is_file():
        print(f"error: no xgkn sources at {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: the running stage is killed and reaped, the work
    # directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    RUNS.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="work-", dir=RUNS))
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    pipelines = result["pipelines"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "config": result["config"],
        "setup_s": [r.wall_s for r in result["setup"]],
        "setup_calib_s": [r.calib_s for r in result["setup"]],
        "speed_factor": result["speed_factor"],
        "raw_end_to_end": result["raw"],
        "pipelines": [{"traced": p.traced, "values": p.values,
                       "stages": {s.stage: {"wall_s": s.wall_s, "calib_s": s.calib_s,
                                            "rss_mb": s.rss_mb, "returncode": s.returncode,
                                            "problems": s.problems} for s in p.stages}}
                      for p in pipelines],
        "digests": {s.stage: s.digests for s in pipelines[0].stages} if pipelines else {},
    }
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    for run in result["setup"] + [s for p in pipelines for s in p.stages]:
        for problem in run.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    print("# setup: " + " ".join(f"prepare={r.wall_s:.3f}s" for r in result["setup"]))
    for p in pipelines:
        walls = " ".join(f"{s.stage}={s.wall_s:.3f}s" for s in p.stages)
        print(f"# {'traced' if p.traced else 'untraced'} pipeline: {walls}")
    print(f"# speed factor {result['speed_factor']:.4f}; unscaled: "
          + " ".join(f"{k}={v:.5g}" for k, v in result["raw"].items()))
    print(f"# record: {record_path}")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
