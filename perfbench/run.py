"""Layered benchmark for gwrev.

    python3 perfbench/run.py --workload exact_dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another
    python3 perfbench/run.py --workload mixed_corpus --smoke

Each run generates its workload's inputs from --seed (set-up, repeated and
timed), then calls `gwrev.cli.main(argv)` in this process, pass after pass
over the same calls, until the next pass would end after --seconds.  The
first pass checks every call against the verdict its generator knows, the
benchmark's own exact identities and the recorded output digest; every
later pass must reproduce the first pass byte for byte.  Every time is
scaled to the host's full speed (see host.py), and a call's time is its
median over the passes.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, reports the per-layer metrics from spans recorded
around gwrev's public functions (see tracing.py), and saves the spans to
.perfbench/trace-<workload>.json.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
# Set-up is repeated at least SETUP_RUNS times and for SETUP_SECONDS before
# the first pass, and again for SETUP_BETWEEN seconds between passes, and
# the median of all reported: a set-up of a few milliseconds then reads
# steady, and its samples span the run rather than one moment of the host.
SETUP_RUNS = 5
SETUP_SECONDS = 1.0
SETUP_BETWEEN = 0.2

sys.path.insert(0, str(HERE))
import host  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_gwrev():
    """gwrev.cli from this checkout's src/, or None when it is not there."""
    src = ROOT / "src"
    if not (src / "gwrev" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import gwrev.cli

    if Path(gwrev.cli.__file__).resolve().parent != (src / "gwrev").resolve():
        return None
    return gwrev.cli


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Pass:
    def __init__(self):
        self.times = []    # seconds per call
        self.marks = []    # per call, the host probe taken before it
        self.scaled = []   # per call, seconds at the host's full speed
        self.digests = []  # sha256 of exit code, stdout and written files per call
        self.errors = []   # (call index, message)
        self.max_bits = 0
        self.support_classes = 0
        self.real_s = 0.0  # wall time of the pass without first-pass checks


def call(cli, argv):
    """Run one CLI call with its output captured: (exit code, stdout,
    seconds, crash message)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    crash = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback breaks the exit-code contract
        code, crash = None, traceback.format_exc(limit=3)
    finally:
        elapsed = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), elapsed, crash


def verdict(op, code, stdout, crash, wrote, files):
    """Error message for a call that fails the correctness gate, else None."""
    if crash is not None:
        return f"raised instead of exiting: {crash.strip().splitlines()[-1]}"
    if code == 2:
        return "exit 2 (malformed input) on a well-formed input"
    if code != op.expect:
        return f"exit {code}, expected {op.expect}"
    if code != 0 and wrote:
        return f"rejected call wrote {wrote[0]}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    return op.check(report, files) if op.check else None


def run_pass(cli, wl, speed, first=None):
    """One pass over the workload's calls, probing the host's `speed`
    between them.  With `first` None every call is checked in full;
    otherwise each call must reproduce `first`'s digest."""
    p = Pass()
    files_so_far = {}
    checking_s = 0.0
    start = time.perf_counter()
    for k, op in enumerate(wl.ops):
        # Emptying a previous pass's output, rather than deleting it, spares
        # the call the kernel's cost of creating the file again, which
        # varies several-fold on a shared machine; a call that no longer
        # writes the file then leaves it empty, and the digest shows it.
        for name in op.outputs:
            if os.path.exists(name):
                os.truncate(name, 0)
        p.marks.append(speed.mark())
        code, stdout, elapsed, crash = call(cli, op.argv)
        p.times.append(elapsed)
        h = hashlib.sha256(f"{k} {code}\n{stdout}".encode())
        wrote = [name for name in op.outputs if os.path.exists(name)]
        for name in wrote:
            data = Path(name).read_bytes()
            files_so_far[name] = data
            h.update(name.encode() + b"\0" + data)
        p.digests.append(h.hexdigest())
        if first is None:
            t0 = time.perf_counter()
            error = verdict(op, code, stdout, crash, wrote, files_so_far)
            if error is None:
                for name in wrote:
                    if name.endswith(".json"):
                        doc = json.loads(files_so_far[name])
                        p.max_bits = max(p.max_bits, oracle.max_bits(doc))
                        p.support_classes += sum(len(e["dist"]) for e in doc["neighbors"])
            checking_s += time.perf_counter() - t0
        else:
            error = None if p.digests[k] == first.digests[k] else "output differs from the first pass"
            p.max_bits, p.support_classes = first.max_bits, first.support_classes
        if error is not None:
            p.errors.append((k, error))
    p.real_s = time.perf_counter() - start - checking_s
    speed.probe()
    return p


def workload_digest(p):
    return hashlib.sha256("\n".join(p.digests).encode()).hexdigest()


def measure(cli, wl, speed, seconds, tracer=None, between=None):
    """Passes until the next one would end after `seconds`, calling
    `between()` before every pass but the first.  With a tracer, untraced
    and traced passes alternate.  Returns (untraced, traced)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if plain and between is not None:
            between()
        gc.collect()
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.install()
            try:
                traced.append(run_pass(cli, wl, speed, first=plain[0]))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(cli, wl, speed, first=plain[0] if plain else None))
        done = plain + traced
        longest = max(p.real_s for p in done)
        enough = bool(plain) and (tracer is None or bool(traced))
        if enough and time.perf_counter() - start + longest > seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def call_times(passes):
    """Each call's median over the passes of its time at full speed."""
    return [statistics.median(ts) for ts in zip(*(p.scaled for p in passes))]


def pass_time(passes):
    """Time of one pass with every call at its median."""
    return sum(call_times(passes))


def end_to_end(wl, passes, setup_s):
    # The percentiles are taken over the calls of one pass, each call at its
    # median over the passes.
    calls = sorted(call_times(passes))
    p90 = statistics.quantiles(calls, n=10, method="inclusive")[8] if len(calls) > 1 else calls[0]
    wall = sum(calls)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(len(wl.ops) / wall, "1/s"),
        "op_p50_ms": metric(1000 * statistics.median(calls), "ms"),
        "op_p90_ms": metric(1000 * p90, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "calls_per_pass": metric(len(calls), "count"),
        "calls_beyond_p90": metric(sum(t > p90 for t in calls), "count"),
        "passes": metric(len(passes), "count"),
    }
    if wl.largest_construct is not None:
        extra["largest_construct_s"] = metric(
            statistics.median(p.scaled[wl.largest_construct] for p in passes), "s")
    if wl.trials:
        extra["trials_per_s"] = metric(wl.trials / wall, "1/s")
    return metrics, extra


def per_layer(tracer, plain, traced):
    """Per-pass means over the traced passes; names follow gwrev's modules."""
    n = len(traced)
    tot = tracer.totals()
    cnt = tracer.counters

    def incl(name):
        return tot[name][1] / n if name in tot else 0.0

    def self_(*names):
        return sum(tot[x][2] for x in names if x in tot) / n

    def calls(name):
        return tot[name][0] / n if name in tot else 0.0

    def count(name, key):
        return cnt[name][key] / n if name in cnt else 0.0

    trials = count("simulator.estimate_flow", "trials") + count("simulator.mass_transport_check", "trials")
    mc_s = incl("simulator.estimate_flow") + incl("simulator.mass_transport_check")
    cli_names = [x for x in tot if x.startswith("cli.")]
    s, c, b, ms = "s", "count", "bytes", "ms"
    out = {
        "checker.run_checks_s": (incl("checker.run_checks"), s),
        "checker.balance_graph_s": (incl("checker.build_balance_graph"), s),
        "checker.potentials_s": (incl("checker.propagate_potentials"), s),
        "checker.graph_builds": (calls("checker.build_balance_graph"), c),
        "checker.graph_builds_per_construct": (tracer.descendants_per_ancestor(
            "checker.build_balance_graph", "cli.cmd_construct"), "ratio"),
        "checker.balance_nodes": (count("checker.build_balance_graph", "nodes"), c),
        "checker.balance_edges": (count("checker.build_balance_graph", "edges"), c),
        "constructor.construct_self_s": (self_("constructor.construct_measure"), s),
        "constructor.verify_s": (incl("constructor.verify_reversibility"), s),
        "constructor.verify_calls": (calls("constructor.verify_reversibility"), c),
        "parametrizer.validate_template_s": (incl("parametrizer.validate_template"), s),
        "parametrizer.assemble_self_s": (self_("parametrizer.assemble_measure"), s),
        "parametrizer.root_weights_s": (incl("parametrizer.solve_root_weights"), s),
        "norelabel.checks_s": (tracer.outermost(
            ["norelabel.run_plain_checks", "norelabel.check_plain_cycles",
             "norelabel.plain_connected"]) / n, s),
        "norelabel.construct_s": (incl("norelabel.construct_plain_measure"), s),
        "norelabel.multinomial_terms": (count("norelabel.multinomial_dist", "terms"), c),
        "covers.label_s": (incl("covers.label_vertices"), s),
        "covers.lift_s": (incl("covers.lift_measure"), s),
        "covers.vertices": (count("covers.label_vertices", "vertices"), c),
        "simulator.flow_s": (incl("simulator.estimate_flow"), s),
        "simulator.transport_s": (incl("simulator.mass_transport_check"), s),
        "simulator.rng_s": (incl("simulator.trial_generator"), s),
        "simulator.rng_calls": (calls("simulator.trial_generator"), c),
        "simulator.trials": (trials, c),
        "simulator.us_per_trial": (1e6 * mc_s / trials if trials else 0.0, "us"),
        "fileformats.load_s": (tracer.outermost(
            ["fileformats.load_json", "fileformats.load_spec", "fileformats.load_measure"]) / n, s),
        "fileformats.save_s": (tracer.outermost(
            ["fileformats.save_measure", "fileformats.save_json"]) / n, s),
        "fileformats.bytes_written": (count("fileformats.save_json", "bytes"), b),
        "cli.calls": (calls("cli.main"), c),
        "cli.self_s": (self_(*cli_names), s),
        "core.max_bits": (traced[0].max_bits, "bits"),
        "core.support_classes": (traced[0].support_classes, c),
        "trace.overhead_s": (pass_time(traced) - pass_time(plain), s),
        "trace.dropped_spans": (len(tracer.dropped), c),
    }
    return {k: metric(v, unit) for k, (v, unit) in out.items()}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def recorded_digest(name, seed):
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get("digests", {}).get(name, {}).get(str(seed))


def run_one(args, cli):
    work = STATE / f"work-{os.getpid()}"
    here = os.getcwd()
    speed = host.Host()
    setup_times = []  # (seconds, host probe before)

    def set_up(runs, seconds):
        # Later set-ups overwrite the files of the first with the same bytes.
        start = time.perf_counter()
        for k in itertools.count():
            if k >= runs and time.perf_counter() - start >= seconds:
                speed.probe()
                return wl
            mark = speed.mark()
            t0 = time.perf_counter()
            wl = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
            setup_times.append((time.perf_counter() - t0, mark))

    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if args.smoke:
            wl = set_up(1, 0)
        else:
            wl = set_up(SETUP_RUNS, SETUP_SECONDS)
        os.chdir(work)
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = measure(cli, wl, speed, args.seconds, tracer,
                                between=lambda: set_up(1, SETUP_BETWEEN))
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    for p in passes:
        p.scaled = [speed.scale(t, mark) for t, mark in zip(p.times, p.marks)]
    attempted = sum(len(p.times) for p in passes)
    errors = [(k, e) for p in passes for (k, e) in p.errors]
    digest = workload_digest(plain[0])
    expected = None if args.smoke else recorded_digest(args.workload, args.seed)
    digest_ok = expected is None or expected == digest
    correct = not errors and digest_ok

    setup_s = statistics.median(speed.scale(t, mark) for t, mark in setup_times)
    e2e, extra = end_to_end(wl, plain, setup_s)
    extra["fail_ratio"] = metric(len(errors) / attempted, "ratio")
    print(f"# workload {args.workload}  seed {args.seed}  calls/pass {len(wl.ops)}  "
          f"passes {len(plain)} untraced, {len(traced)} traced")
    print(f"# pass times (s): {' '.join(f'{sum(p.times):.3f}' for p in plain)}; "
          f"at full speed: {' '.join(f'{sum(p.scaled):.3f}' for p in plain)}")
    for k, e in errors[:20]:
        print(f"# FAIL call {k} {' '.join(wl.ops[k].argv)}: {e}")
    print(f"# digest {digest}"
          + ("" if expected is None else ("  (matches record)" if digest_ok
                                          else f"  MISMATCH, recorded {expected}"))
          + ("  (traced passes reproduce it)" if traced and not errors else ""))
    if args.trace:
        metrics = per_layer(tracer, plain, traced)
        STATE.mkdir(exist_ok=True)
        tracer.write(STATE / f"trace-{args.workload}.json")
        if tracer.dropped:
            print(f"# dropped spans: {', '.join(tracer.dropped)}")
    else:
        metrics = e2e
    for name, m in {**metrics, **({} if args.trace else extra)}.items():
        print(f"# {name:38s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    worst = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0
    if args.workload == "all":
        return run_all(args)
    cli = import_gwrev()
    if cli is None:
        sys.stderr.write(f"error: no gwrev sources under {ROOT / 'src'}\n")
        return 2
    return run_one(args, cli)


if __name__ == "__main__":
    sys.exit(main())
