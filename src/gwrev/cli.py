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
import os
import sys
import tempfile

from . import fileformats as ff
from .checker import run_checks
from .constructor import construct_measure, verify_reversibility
from .core import ChecksFailedError, GwrevError, PAIR, SpecError
from .covers import label_vertices, lift_measure, load_graph, pair_digraph
from .norelabel import PlainSpec, construct_plain_measure, run_plain_checks
from .parametrizer import InconsistentRatiosError, InvalidTemplateError, assemble_measure


def _emit(obj) -> None:
    sys.stdout.write(ff.canonical_json(obj))


def _file_mode(path) -> int:
    """The permission bits of the file at `path`, or those that open()
    gives a new file when there is none."""
    try:
        return os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        mask = os.umask(0)
        os.umask(mask)
        return 0o666 & ~mask


def _save_verified(measure, out, fields=None, extra=None) -> int:
    """Verify the measure exactly, write it to `out`, and with it the text
    `extra[1]` to the path `extra[0]` when given, and report success with
    `fields`.  A violation (impossible for a checked spec) is emitted as the
    failed `verify` condition.  A call that fails writes nothing: the extra
    file is opened, without being changed, before the measure is written,
    a measure bound for a regular file (or for none) is written under a
    temporary name beside it and renamed over it only once the extra text
    is written, and a file the call created is removed again if a write
    fails."""
    violations = verify_reversibility(measure)
    if violations:
        _emit({"ok": False, "failed": ["verify"],
               "violations": ff.violations_to_obj(violations)})
        return 1
    if extra is None:
        ff.save_measure(out, measure)
    else:
        path, text = extra
        target, temp = os.path.realpath(out), None
        created = [] if os.path.lexists(path) else [path]
        try:
            with open(path, "a") as fh:
                if not os.path.exists(target) or os.path.isfile(target):
                    fd, temp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".json")
                    os.close(fd)
                    created.append(temp)
                    os.chmod(temp, _file_mode(target))
                ff.save_measure(temp or out, measure)
                if os.path.isfile(path):  # a device or a pipe cannot be truncated
                    fh.truncate(0)
                fh.write(text)
            if temp:
                os.replace(temp, target)
        except OSError:
            for p in created:
                if os.path.exists(p):
                    os.remove(p)
            raise
    _emit({"ok": True, "written": out, "verified": True, **(fields or {})})
    return 0


def _report_obj(spec, report) -> dict:
    """The report document of the spec's regime."""
    return ff.report_to_obj(report) if spec.mode == PAIR else ff.plain_report_to_obj(report)


def cmd_check(args) -> int:
    spec = ff.load_spec(args.spec)
    report = run_checks(spec) if spec.mode == PAIR else run_plain_checks(spec)
    _emit(_report_obj(spec, report))
    return 0 if report.ok() else 1


def cmd_construct(args) -> int:
    spec = ff.load_spec(args.spec)
    try:
        measure = (construct_measure if spec.mode == PAIR else construct_plain_measure)(spec)
    except ChecksFailedError as err:
        report = err.report
        if isinstance(spec, PlainSpec):
            # the direct form's short document: its first failed name and
            # cycle; writing the full report here, as `check` does, waits for
            # a change that re-records the benchmark digests it alters
            cycle = report.violating_cycle
            _emit({"ok": False, "failed": report.failed_names()[:1],
                   **({"violating_cycle": list(cycle)} if cycle else {})})
        else:
            _emit(_report_obj(spec, report))
        return 1
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


def _same_path(a: str, b: str) -> bool:
    """Whether two paths name one file: `os.path.samefile` when both exist,
    their resolved paths otherwise."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def cmd_cover(args) -> int:
    if args.dot and _same_path(args.dot, args.out):
        raise SpecError(f"--dot {args.dot} names the measure output {args.out}")
    graph = load_graph(args.graph)
    labels = label_vertices(graph, max_vertices=args.max_vertices)
    measure = lift_measure(graph, labels)
    fields = {"labels": [labels[v] for v in sorted(labels)]}
    if not args.dot:
        return _save_verified(measure, args.out, fields)
    dot = pair_digraph(measure).to_dot()
    return _save_verified(measure, args.out, {**fields, "dot": args.dot}, (args.dot, dot))


def _estimate_obj(name, est) -> dict:
    return {
        "direction": name,
        "empirical_mean": est.empirical_mean,
        "std_error": est.std_error,
        "exact": str(est.exact),
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
    _emit({"ok": not violations, "violations": ff.violations_to_obj(violations)})
    return 0 if not violations else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one.  Subcommands dispatch by name at call time, so a replaced
    module-level `cmd_*` function is the one that runs."""
    return _parsers()[0]


@functools.cache
def _parsers():
    """(parser, subparsers): the top-level parser and each subcommand's own
    parser by name, built once."""
    parser = argparse.ArgumentParser(
        prog="gwrev",
        description="Reversible root measures for multi-type branching trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, help):
        commands[name] = p = sub.add_parser(name, help=help)
        return p

    p = command("check", help="run the admissibility checks on a spec")
    p.add_argument("spec")

    p = command("construct", help="build the reversible measure for a spec")
    p.add_argument("spec")
    p.add_argument("out")

    p = command("parametrize", help="build the measure for a support template and weights")
    p.add_argument("template")
    p.add_argument("params")
    p.add_argument("out")

    p = command("cover", help="lift a finite graph to a measure")
    p.add_argument("graph")
    p.add_argument("out")
    p.add_argument("--dot", default=None, help="also write the pair digraph as DOT")
    p.add_argument("--max-vertices", type=int, default=10)

    p = command("simulate", help="Monte Carlo flow / transport estimates")
    p.add_argument("measure")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--from", dest="source", default=None,
                   metavar="CLS", help='source class, e.g. "1:(1,1)"')
    p.add_argument("--to", dest="target", default=None,
                   metavar="CLS", help='target class, e.g. "2:(1,1)"')
    p.add_argument("--mtp", default=None, metavar="I,J",
                   help="check the mass-transport identity for a label pair")

    p = command("verify", help="exact detailed-balance check of a measure")
    p.add_argument("measure")
    return parser, commands


def parse_args(argv) -> argparse.Namespace:
    """`build_parser().parse_args(argv)` in one argparse pass: a known
    subcommand is parsed by its own parser, and left-over arguments are
    refused by the top-level parser, as the nested parse refuses them.
    Anything else (no arguments, an option first, an unknown command) goes
    through the top-level parser."""
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    with ff.int_limit(0):
        try:
            args = parse_args(sys.argv[1:] if argv is None else list(argv))
            return globals()[f"cmd_{args.command}"](args)
        except (GwrevError, OSError, json.JSONDecodeError, KeyError, ValueError) as err:
            sys.stderr.write(f"error: {err}\n")
            return 2


if __name__ == "__main__":
    sys.exit(main())
