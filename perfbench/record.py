"""Run every workload on several seeds and record the results.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

Each run is one `run.py` process.  The output holds, per workload and
metric, the median, the quartiles and the spread (interquartile distance
over the median) of the per-run values, every run's values, the output
digest of every seed, and the Python and numpy versions, nproc and CPU
model of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine():
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": model}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    doc = {"machine": machine(), "seconds": args.seconds, "workloads": {}, "digests": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            digest = next((line.split()[2] for line in lines if line.startswith("# digest ")), None)
            print(f"{name} seed {seed}: exit {proc.returncode} "
                  f"correct {result and result['correct']} "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
            if proc.returncode != 0 or result is None:
                ok = False
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            runs.append(result)
            doc["digests"].setdefault(name, {})[str(seed)] = digest
        metrics = {}
        for result in runs:
            for key, m in result["metrics"].items():
                metrics.setdefault(key, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        doc["workloads"][name] = {
            "runs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {k: {"unit": v["unit"], **summary(v["values"])} for k, v in metrics.items()},
        }
        for key, s in doc["workloads"][name]["metrics"].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {key:38s} median {s['median']:12.6g} {s['unit']:6s} spread {spread}",
                  flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
