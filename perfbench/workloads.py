"""The three benchmark workloads, as seeded lists of gwrev CLI calls.

`build(name, seed, workdir, smoke)` writes the inputs into `workdir` and
returns a Workload whose ops name their input and output files relative
to it.  Every op carries the exit code its generator knows it must give
and a check on its report and written files; see run.py for how both are
applied.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import gen
import oracle


@dataclass
class Op:
    """One CLI call: argv, the exit code it must give, the files it writes,
    and a check(report, files) returning an error message or None."""

    argv: List[str]
    expect: int
    outputs: Tuple[str, ...] = ()
    check: Optional[Callable] = None


@dataclass
class Workload:
    ops: List[Op]
    # index of the op whose time is reported as largest_construct_s
    largest_construct: Optional[int] = None
    # Monte Carlo trials per pass
    trials: int = 0


def _write(workdir: Path, name: str, obj) -> str:
    text = obj if isinstance(obj, str) else gen.dumps(obj)
    (workdir / name).write_text(text)
    return name


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def measure_written(out, same_as=None):
    """The op wrote `out`, reported it verified, and the measure satisfies
    detailed balance (or is byte-identical to the already checked `same_as`)."""

    def check(report, files):
        if not (report.get("ok") is True and report.get("written") == out
                and report.get("verified") is True):
            return f"report does not confirm a verified {out}"
        if out not in files:
            return f"{out} was not written"
        if same_as is not None:
            return None if files[out] == files[same_as] else f"{out} differs from {same_as}"
        bad = oracle.balance_violation(json.loads(files[out]))
        return None if bad is None else f"{out} breaks detailed balance at {bad}"

    return check


def rejected(name, replay=None):
    """The report names condition `name` as failed; `replay(report)` may add
    a check on the witness."""

    def check(report, files):
        if report.get("ok") is not False or name not in report.get("failed", []):
            return f"report does not name {name} as failed"
        return replay(report) if replay else None

    return check


def rejected_reason(prefix):
    """parametrize reports a failed template condition whose text starts
    with `prefix`."""

    def check(report, files):
        failed = report.get("failed", [])
        if report.get("ok") is False and failed and failed[0].startswith(prefix):
            return None
        return f"report does not name {prefix} as failed"

    return check


def pair_cycle_replay(laws):
    def replay(report):
        cycle = [(e["label"], tuple(e["c"])) for e in report.get("violating_cycle", [])]
        if len(cycle) < 3 or cycle[0] != cycle[-1]:
            return "no closed violating cycle reported"
        if oracle.pair_cycle_product(laws, cycle) == 1:
            return "reported violating cycle replays to product 1"
        return None

    return replay


def plain_cycle_replay(params):
    def replay(report):
        cycle = report.get("violating_cycle", [])
        if len(cycle) < 3 or cycle[0] != cycle[-1]:
            return "no closed violating cycle reported"
        if oracle.plain_cycle_product(params, cycle) == 1:
            return "reported violating cycle replays to product 1"
        return None

    return replay


def report_ok(report, files):
    return None if report.get("ok") is True else "report is not ok"


def verified_clean(report, files):
    if report.get("ok") is True and report.get("violations") == []:
        return None
    return "verify reports violations"


def estimates_match(flows):
    """Both estimates of a simulate call agree with the benchmark's own exact
    values (`flows` is the exact pair) and lie within 4 standard errors."""

    def check(report, files):
        got = report.get("estimates", [])
        if len(got) != 2:
            return "simulate did not report two estimates"
        for est, exact in zip(got, flows):
            if Fraction(est["exact"]) != exact:
                return f"{est['direction']}: exact {est['exact']} != {exact}"
            if abs(est["empirical_mean"] - float(exact)) > 4 * est["std_error"]:
                return f"{est['direction']}: estimate outside 4 SE of {exact}"
        return None

    return check


# ---------------------------------------------------------------------------
# exact_dense
# ---------------------------------------------------------------------------

def exact_dense(rng, workdir: Path, smoke: bool) -> Workload:
    sizes = [(2, 16)] if smoke else [(6, 16), (8, 16), (10, 64)]
    biggest = max(k for k, _ in sizes)
    ops: List[Op] = []
    largest = None
    for k, bits in sizes:
        tag = f"grid{k}b{bits}"
        classes = gen.grid_classes(k)
        weights = gen.random_weights(rng, classes, bits)
        laws, _ = gen.forced_laws(2, weights)
        flat = gen.flatten_law(laws, (1, 1))
        tmpl = _write(workdir, f"{tag}.tmpl.json", gen.template_doc(2, classes))
        wts = _write(workdir, f"{tag}.w.json", gen.weights_doc(weights))
        spec = _write(workdir, f"{tag}.spec.json", gen.pair_spec_doc(2, laws))
        flat_spec = _write(workdir, f"{tag}.flat.json", gen.pair_spec_doc(2, flat))
        par, con = f"{tag}.par.json", f"{tag}.con.json"
        ops.append(Op(["parametrize", tmpl, wts, par], 0, (par,), measure_written(par)))
        ops.append(Op(["construct", spec, con], 0, (con,), measure_written(con, same_as=par)))
        if k == biggest and largest is None:
            largest = len(ops) - 1
        ops.append(Op(["check", flat_spec], 1, (),
                      rejected("condition_ii", pair_cycle_replay(flat))))
    return Workload(ops, largest_construct=largest)


# ---------------------------------------------------------------------------
# mixed_corpus
# ---------------------------------------------------------------------------

# Groups per category.  The leafy, asymmetric, ring and plain_broken groups
# end in a rejected call, which makes about a quarter of all calls exit 1.
CORPUS = {
    "template": 150,
    "leafy": 40,
    "asymmetric": 50,
    "ring": 55,
    "plain": 100,
    "plain_check": 30,
    "plain_broken": 60,
    "graph": 80,
    "cubic": 6,
}
SMOKE_CORPUS = {
    "template": 3, "leafy": 1, "asymmetric": 1, "ring": 1, "plain": 2,
    "plain_check": 1, "plain_broken": 1, "graph": 2, "cubic": 0,
}


def _template_group(rng, workdir, tag, kind) -> List[Op]:
    if kind == "ring":
        n = rng.randrange(3, 7)
        nbrs = gen.ring_neighbors(n)
    else:
        n = rng.randrange(3 if kind == "asymmetric" else (2 if kind == "leafy" else 1), 9)
        nbrs = gen.random_label_tree(rng, n)
    leaf = None
    if kind == "leafy":
        # a tree leaf without a self-loop becomes a dead end
        j = max(i for i in nbrs if len(nbrs[i] - {i}) == 1)
        nbrs[j].discard(j)
        leaf = (j, next(iter(nbrs[j])))
    classes = gen.hub_template(rng, n, nbrs, leaf=leaf)
    if kind == "asymmetric":
        # label i sees a label k that does not see i back
        i, k = rng.choice([(i, k) for i in nbrs for k in nbrs if k != i and k not in nbrs[i]])
        label, c = next(cls for cls in classes if cls[0] == i)
        classes.remove((label, c))
        classes.append((i, tuple(x + (idx == k) for idx, x in enumerate(c, start=1))))
        classes = sorted(set(classes))
    weights = gen.random_weights(rng, classes, 10)
    tmpl = _write(workdir, f"{tag}.tmpl.json", gen.template_doc(n, classes))
    wts = _write(workdir, f"{tag}.w.json", gen.weights_doc(weights))
    par = f"{tag}.par.json"
    parametrize = ["parametrize", tmpl, wts, par]
    if kind == "asymmetric":
        return [Op(parametrize, 1, (par,), rejected_reason("support_symmetry"))]
    laws, norm = gen.forced_laws(n, weights)
    if kind == "ring":
        _, consistent = gen.label_potentials(n, norm)
        if consistent:
            return [Op(parametrize, 0, (par,), measure_written(par))]
        return [Op(parametrize, 1, (par,), rejected("inconsistent_ratios"))]
    spec = _write(workdir, f"{tag}.spec.json", gen.pair_spec_doc(n, laws))
    con = f"{tag}.con.json"
    ops = [Op(parametrize, 0, (par,), measure_written(par))]
    if kind == "leafy":
        ops.append(Op(["construct", spec, con], 1, (con,), rejected("strongly_connected")))
        return ops
    ops.append(Op(["construct", spec, con], 0, (con,), measure_written(con, same_as=par)))
    roll = rng.random()
    if roll < 0.3:
        ops.append(Op(["verify", con], 0, (), verified_clean))
    elif roll < 0.5:
        ops.append(Op(["check", spec], 0, (), report_ok))
    return ops


def _plain_group(rng, workdir, tag, kind) -> List[Op]:
    broken = kind == "plain_broken"
    n = rng.randrange(3, 7) if broken else rng.randrange(1, 7)
    doc, params = gen.plain_spec(rng, n, 4, reversible=not broken)
    spec = _write(workdir, f"{tag}.spec.json", doc)
    out = f"{tag}.con.json"
    if kind == "plain_check":
        return [Op(["check", spec], 0, (), report_ok)]
    if gen.plain_cycle_consistent(n, params):
        return [Op(["construct", spec, out], 0, (out,), measure_written(out))]
    return [Op(["construct", spec, out], 1, (out,),
               rejected("cycles", plain_cycle_replay(params)))]


def _graph_group(rng, workdir, tag, kind) -> List[Op]:
    if kind == "cubic":
        edges = gen.random_cubic_graph(rng, rng.choice([16, 18, 20, 22, 24]))
        extra = ["--max-vertices", "24"]
    else:
        edges = gen.random_connected_graph(rng, rng.randrange(3, 11))
        extra = []
    graph = _write(workdir, f"{tag}.graph.txt", gen.graph_text(edges))
    out, dot = f"{tag}.cov.json", f"{tag}.dot"
    outputs = (out,)
    if rng.random() < 0.25:
        extra += ["--dot", dot]
        outputs = (out, dot)
    return [Op(["cover", graph, out, *extra], 0, outputs, measure_written(out))]


def mixed_corpus(rng, workdir: Path, smoke: bool) -> Workload:
    groups = []
    for kind, count in (SMOKE_CORPUS if smoke else CORPUS).items():
        for k in range(count):
            tag = f"{kind}{k}"
            if kind in ("template", "leafy", "asymmetric", "ring"):
                groups.append(_template_group(rng, workdir, tag, kind))
            elif kind.startswith("plain"):
                groups.append(_plain_group(rng, workdir, tag, kind))
            else:
                groups.append(_graph_group(rng, workdir, tag, kind))
    rng.shuffle(groups)
    return Workload([op for group in groups for op in group])


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------

# The worked two-label support: classes 1:(1,1), 1:(2,1), 2:(0,3), 2:(1,1)
# with equal weights give root-label weights 3/8 and 5/8.
WORKED = [(1, (1, 1)), (1, (2, 1)), (2, (0, 3)), (2, (1, 1))]


def _selector(cls):
    label, c = cls
    return f"{label}:({','.join(str(x) for x in c)})"


def _measure(weights):
    laws, norm = gen.forced_laws(2, weights)
    root, _ = gen.label_potentials(2, norm)
    return gen.measure_doc(2, root, weights, laws)


def _mc_ops(workdir, name, doc, trials, seed, source, target) -> List[Op]:
    path = _write(workdir, f"{name}.json", doc)
    measure = oracle.parse_measure(doc)
    flows = (oracle.exact_flow(measure, source, target),
             oracle.exact_flow(measure, target, source))
    transport = (oracle.exact_transport(measure, 1, 2), oracle.exact_transport(measure, 2, 1))
    common = ["simulate", path, "--trials", str(trials), "--seed", str(seed)]
    return [
        Op(common + ["--from", _selector(source), "--to", _selector(target)], 0, (),
           estimates_match(flows)),
        Op(common + ["--mtp", "1,2"], 0, (), estimates_match(transport)),
    ]


def monte_carlo(rng, workdir: Path, smoke: bool, seed: int) -> Workload:
    worked_trials, grid_trials = (200, 200) if smoke else (10000, 2500)
    worked = _measure({cls: Fraction(1, 2) for cls in WORKED})
    ops = _mc_ops(workdir, "worked", worked, worked_trials, seed, (1, (1, 1)), (2, (1, 1)))
    # The flow between the two heaviest classes rests on a hundred or more hits
    # per 2.5k trials, so a 4-SE miss is a 1e-4 event; 1:(4,4) and 2:(4,4)
    # also sort last, so their draws walk the whole CDF.
    classes = gen.grid_classes(4)
    source, target = (1, (4, 4)), (2, (4, 4))
    grid = _measure(gen.heavy_weights(rng, classes, (source, target), 32))
    ops += _mc_ops(workdir, "grid4", grid, grid_trials, seed, source, target)
    return Workload(ops, trials=2 * worked_trials + 2 * grid_trials)


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "exact_dense":
        return exact_dense(rng, workdir, smoke)
    if name == "mixed_corpus":
        return mixed_corpus(rng, workdir, smoke)
    if name == "monte_carlo":
        return monte_carlo(rng, workdir, smoke, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("exact_dense", "mixed_corpus", "monte_carlo")
