"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (the distance between the first and third
quartile as a share of the median), against the bound in BENCHMARK.json.

    python3 bench/spread.py --workload w2-ba2-onehot --seeds 1,2,3,4,5

Runs are made one after the other; each result line is kept in
``.bench_runs/spread-<workload>.jsonl``, with the run's speed factor and
unscaled end-to-end values from its record. A seed may be repeated
(``--seeds 7,7,7,7,7``) to see the spread of one set of inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT, RUNS, quartile_spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    RUNS.mkdir(exist_ok=True)
    log = RUNS / f"spread-{args.workload}.jsonl"
    results = []
    for seed in (int(s) for s in args.seeds.split(",")):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: output checks failed\n{proc.stderr}", file=sys.stderr)
            return 1
        results.append(result)
        record = json.loads((RUNS / f"{args.workload}-seed{seed}-trace0.json")
                            .read_text(encoding="utf-8"))
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result,
                                 "speed_factor": record["speed_factor"],
                                 "raw_end_to_end": record["raw_end_to_end"]}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{'metric':<24}{'median':>12}{'spread':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        print(f"{metric['name']:<24}{statistics.median(values):>12.4g}"
              f"{spread:>9.3f}{metric['bound']:>7.2f}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
