"""Command-line driver.

Subcommands: check, construct, parametrize, cover, simulate, verify.
Reports are emitted as canonical JSON on stdout.  Exit codes: 0 when every
requested condition holds, 1 when a condition fails (the report names it),
2 on malformed input.  Seeds are always explicit; there is no environment
fallback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fileformats as ff
from .checker import run_checks
from .constructor import construct_measure, verify_reversibility
from .core import GwrevError, PAIR, SpecError
from .covers import label_vertices, lift_measure, load_graph, pair_digraph
from .norelabel import PlainSpec, check_plain_spec, construct_plain_measure, run_plain_checks
from .parametrizer import InconsistentRatiosError, InvalidTemplateError, assemble_measure


def _emit(obj) -> None:
    sys.stdout.write(ff.canonical_json(obj))


def _violations_obj(violations) -> list:
    return [
        {
            "first": {"label": u.label, "c": list(u.vector)},
            "second": {"label": v.label, "c": list(v.vector)},
            "lhs": ff.format_fraction(lhs),
            "rhs": ff.format_fraction(rhs),
        }
        for (u, v, lhs, rhs) in violations
    ]


def _save_verified(measure, out, more=dict) -> int:
    """Verify the measure exactly, write it to `out` and report success with
    the fields `more()` returns; `more` runs after the write.  A violation
    (impossible for a checked spec) is emitted as the failed `verify`
    condition, and nothing is written."""
    violations = verify_reversibility(measure)
    if violations:
        _emit({"ok": False, "failed": ["verify"],
               "violations": _violations_obj(violations)})
        return 1
    ff.save_measure(out, measure, verified=True)
    _emit({"ok": True, "written": out, "verified": True, **more()})
    return 0


def cmd_check(args) -> int:
    spec = ff.load_spec(args.spec)
    if isinstance(spec, PlainSpec):
        report = check_plain_spec(spec)
        _emit(ff.plain_report_to_obj(report))
        return 0 if report.ok() else 1
    if spec.mode == PAIR:
        report = run_checks(spec)
        _emit(ff.report_to_obj(report))
        return 0 if report.ok() else 1
    report, _ = run_plain_checks(spec)
    _emit(ff.plain_report_to_obj(report))
    return 0 if report.ok() else 1


def cmd_construct(args) -> int:
    spec = ff.load_spec(args.spec)
    if isinstance(spec, PlainSpec):
        report = check_plain_spec(spec)
        if not report.ok():
            cycle = report.violating_cycle
            _emit({"ok": False, "failed": report.failed_names()[:1],
                   **({"violating_cycle": list(cycle)} if cycle else {})})
            return 1
        measure = construct_plain_measure(spec)
    elif spec.mode == PAIR:
        report = run_checks(spec)
        if not report.ok():
            _emit(ff.report_to_obj(report))
            return 1
        measure = construct_measure(spec, report)
    else:
        report, pspec = run_plain_checks(spec)
        if not report.ok():
            _emit(ff.plain_report_to_obj(report))
            return 1
        measure = construct_plain_measure(pspec)
    return _save_verified(measure, args.out)


def cmd_parametrize(args) -> int:
    template = ff.obj_to_template(ff.load_json(args.template))
    weights = ff.obj_to_weights(ff.load_json(args.params))
    try:
        measure = assemble_measure(template, weights)
    except InvalidTemplateError as err:
        _emit({"ok": False, "failed": [err.reason]})
        return 1
    except InconsistentRatiosError as err:
        _emit({"ok": False, "failed": ["inconsistent_ratios"],
               "labels": list(err.labels)})
        return 1
    return _save_verified(measure, args.out)


def cmd_cover(args) -> int:
    graph = load_graph(args.graph)
    labels = label_vertices(graph, max_vertices=args.max_vertices)
    measure = lift_measure(graph, labels)

    def more() -> dict:
        out = {"labels": [labels[v] for v in sorted(labels)]}
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(pair_digraph(graph, labels).to_dot())
            out["dot"] = args.dot
        return out

    return _save_verified(measure, args.out, more)


def _estimate_obj(name, est) -> dict:
    return {
        "direction": name,
        "empirical_mean": est.empirical_mean,
        "std_error": est.std_error,
        "exact": ff.format_fraction(est.exact),
        "trials": est.trials,
        "seed": est.seed,
        "generator": est.generator,
        "within_4se": est.within(4.0),
    }


def _check_label(measure, label: int, what: str) -> None:
    if not 1 <= label <= measure.n:
        raise SpecError(f"{what}: label {label} outside [1, {measure.n}]")


def _selector(measure, text: str):
    cls = ff.parse_class_selector(text)
    _check_label(measure, cls.label, text)
    if len(cls.vector) != measure.n:
        raise SpecError(f"{text}: vector of length {len(cls.vector)}, expected {measure.n}")
    return cls


def cmd_simulate(args) -> int:
    from . import simulator  # the one subcommand that needs numpy

    if args.trials < 1:
        raise SpecError(f"--trials must be at least 1, got {args.trials}")
    if args.mtp is not None and (args.source is not None or args.target is not None):
        raise SpecError("simulate takes --mtp I,J or --from and --to, not both")
    measure = ff.load_measure(args.measure)
    if args.mtp is not None:
        try:
            i, j = (int(x) for x in args.mtp.split(","))
        except ValueError:
            raise SpecError(f"--mtp I,J takes two labels, got {args.mtp!r}") from None
        _check_label(measure, i, "--mtp")
        _check_label(measure, j, "--mtp")
        fwd, bwd = simulator.mass_transport_check(measure, i, j, args.trials, args.seed)
        names = (f"transport {i}->{j}", f"transport {j}->{i}")
    else:
        if args.source is None or args.target is None:
            raise SpecError("simulate needs --from and --to, or --mtp i,j")
        source = _selector(measure, args.source)
        target = _selector(measure, args.target)
        fwd, bwd = simulator.estimate_flow(measure, source, target, args.trials, args.seed)
        names = (f"flow {source}->{target}", f"flow {target}->{source}")
    records = [_estimate_obj(names[0], fwd), _estimate_obj(names[1], bwd)]
    ok = all(r["within_4se"] for r in records)
    _emit({"ok": ok, "estimates": records})
    return 0 if ok else 1


def cmd_verify(args) -> int:
    measure = ff.load_measure(args.measure)
    violations = verify_reversibility(measure)
    _emit({"ok": not violations, "violations": _violations_obj(violations)})
    return 0 if not violations else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one.  Subcommands dispatch by name at call time, so a replaced
    module-level `cmd_*` function is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="gwrev",
        description="Reversible root measures for multi-type branching trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the admissibility checks on a spec")
    p.add_argument("spec")

    p = sub.add_parser("construct", help="build the reversible measure for a spec")
    p.add_argument("spec")
    p.add_argument("out")

    p = sub.add_parser("parametrize",
                       help="build the measure for a support template and weights")
    p.add_argument("template")
    p.add_argument("params")
    p.add_argument("out")

    p = sub.add_parser("cover", help="lift a finite graph to a measure")
    p.add_argument("graph")
    p.add_argument("out")
    p.add_argument("--dot", default=None, help="also write the pair digraph as DOT")
    p.add_argument("--max-vertices", type=int, default=10)

    p = sub.add_parser("simulate", help="Monte Carlo flow / transport estimates")
    p.add_argument("measure")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--from", dest="source", default=None,
                   metavar="CLS", help='source class, e.g. "1:(1,1)"')
    p.add_argument("--to", dest="target", default=None,
                   metavar="CLS", help='target class, e.g. "2:(1,1)"')
    p.add_argument("--mtp", default=None, metavar="I,J",
                   help="check the mass-transport identity for a label pair")

    p = sub.add_parser("verify", help="exact detailed-balance check of a measure")
    p.add_argument("measure")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (GwrevError, OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
