"""Batch front end: parse instance files, dispatch checks, emit reports.

Exit codes: 0 when every requested condition holds, 1 when at least one
fails, 2 on input/validation errors or inconclusive results, 3 on an
internal fault (any other exception), so that a fault is never read as a
"fails" verdict.  `corpus` keeps a fault to its file: that row gets
`checks: null` and `error: "internal error: <type>: <message>"`, the fault
and its location go to stderr, the other files still run, and the run
exits 3.  Reports are deterministic for fixed
input and seed;
timing goes to stderr only so that both the text and the JSON payloads
stay byte-reproducible.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from . import __version__, corpus_dir
from .finsler import verify_euler_identities, verify_inverse_identities
from .instancefile import InstanceError, InstanceFile, build_instance, load_instance_file, parse_expressions
from .kropina import (
    DUALLY_FLAT,
    HAMEL,
    KropinaInstance,
    check_dually_flat,
    check_projectively_flat,
    check_prop31,
    check_theorem1,
    contraction_probes,
    numeric_crosscheck,
    sample_admissible_points,
)
from .reports import FAILS, HOLDS, INCONCLUSIVE, Condition, ConditionReport

CHECK_COMMANDS = (
    "check-dually-flat",
    "check-theorem1",
    "check-projectively-flat",
    "check-prop31",
    "verify-identities",
    "crosscheck",
)

_CORPUS_CHECKS = (
    ("dually-flat", check_dually_flat),
    ("theorem1", check_theorem1),
    ("projectively-flat", check_projectively_flat),
    ("prop31", check_prop31),
)


def _crosscheck_reports(inst, seed: int, points: int) -> list[ConditionReport]:
    sampled = sample_admissible_points(inst, points, seed)
    h = 1e-4
    report = ConditionReport(name="crosscheck")
    results = []
    for kind, label in ((DUALLY_FLAT, "dually-flat"), (HAMEL, "projective")):
        worst = 0.0
        ok = True
        for point in sampled:
            res = numeric_crosscheck(inst, kind, point, h)
            results.append(res.to_dict())
            worst = max(worst, res.max_disagreement)
            ok = ok and res.passed
        name = f"{label} residual agrees with finite differences at {points} points"
        if ok:
            report.conditions.append(
                Condition(name, HOLDS, detail=f"max disagreement {worst:.3e} at h={h:g}")
            )
        else:
            report.conditions.append(
                Condition(name, FAILS, witness=f"max disagreement {worst:.3e} at h={h:g}")
            )
    report.derived_facts["h"] = h
    report.derived_facts["points"] = points
    report.derived_facts["seed"] = seed
    report.derived_facts["results"] = results
    return [report]


def run_command(
    command: str,
    spec: InstanceFile,
    seed: int | None,
    points: int | None,
    inst: KropinaInstance | None = None,
):
    """Run one check command on a validated instance; returns report list.

    `inst` is the instance built from `spec`, if the caller has it already.
    """
    if inst is None:
        inst = build_instance(spec)
    if command == "check-dually-flat":
        return [check_dually_flat(inst)]
    if command == "check-theorem1":
        return [check_theorem1(inst)]
    if command == "check-projectively-flat":
        return [check_projectively_flat(inst)]
    if command == "check-prop31":
        return [check_prop31(inst)]
    if command == "verify-identities":
        return [
            verify_euler_identities(inst.metric),
            verify_inverse_identities(inst.metric),
            contraction_probes(inst),
        ]
    if command == "crosscheck":
        return _crosscheck_reports(
            inst,
            spec.seed if seed is None else seed,
            spec.numeric_points if points is None else points,
        )
    raise ValueError(f"unknown command {command!r}")


def exit_code_for(reports: list[ConditionReport]) -> int:
    verdicts = [r.overall for r in reports]
    if any(v == INCONCLUSIVE for v in verdicts):
        return 2
    if any(v == FAILS for v in verdicts):
        return 1
    return 0


def _instance_echo(spec: InstanceFile, inst: KropinaInstance | None = None) -> dict:
    """The spec, plus the canonical A and beta when the spec is valid.

    Without `inst`, only the expressions are parsed: the echo needs no
    derived quantity.
    """
    echo = spec.to_dict()
    if inst is not None:
        a, b = inst.a, inst.b
    else:
        try:
            metric, beta = parse_expressions(spec)
        except InstanceError:
            return echo
        a, b = metric.a, beta.as_poly()
    echo["A_canonical"] = str(a)
    echo["beta_canonical"] = str(b)
    return echo


def _document(
    command: str,
    spec: InstanceFile,
    reports: list[ConditionReport],
    inst: KropinaInstance | None = None,
) -> dict:
    return {
        "tool": "kropinaflat",
        "version": __version__,
        "command": command,
        "instance": _instance_echo(spec, inst),
        "checks": [r.to_dict() for r in reports],
        "exit_code": exit_code_for(reports),
    }


def _render_text(document: dict) -> str:
    lines = [f"kropinaflat {document['version']} - {document['command']}"]
    inst = document["instance"]
    source = inst.get("source") or "<inline>"
    lines.append(f"instance: {source} (n={inst['n']}, m={inst['m']})")
    lines.append(f"  A = {inst['A']}")
    lines.append(f"  beta = {inst['beta']}")
    for check in document["checks"]:
        lines.append("")
        lines.append(_render_check_text(check))
    lines.append("")
    lines.append(f"exit: {document['exit_code']}")
    return "\n".join(lines)


def _render_check_text(check: dict) -> str:
    lines = [f"[{check['overall'].upper()}] {check['name']}"]
    for c in check["conditions"]:
        lines.append(f"  - {c['name']}: {c['verdict']}")
        if "witness" in c:
            lines.append(f"      witness: {c['witness']}")
        if "witness_point" in c:
            xs = ", ".join(c["witness_point"]["x"])
            ys = ", ".join(c["witness_point"]["y"])
            lines.append(f"      at point x=({xs}), y=({ys})")
        if "detail" in c:
            lines.append(f"      note: {c['detail']}")
    for key in sorted(check["derived_facts"]):
        if key == "results":
            continue  # bulky numeric tables live in the JSON payload only
        lines.append(f"  derived {key}: {check['derived_facts'][key]}")
    return "\n".join(lines)


def _render_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _emit(document: dict, fmt: str, out: str | None) -> None:
    rendered = _render_json(document) if fmt == "json" else _render_text(document) + "\n"
    if out:
        Path(out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)


def _fault_text(exc: Exception) -> str:
    """`<type>: <message>` of an internal fault, on one line."""
    return f"{type(exc).__name__}: {' '.join(str(exc).split())}"


def _fault_location(exc: Exception) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f" (at {Path(where.filename).name}:{where.lineno} in {where.name})"


# -- corpus ------------------------------------------------------------------

def run_corpus(directory: str | Path) -> tuple[dict, int]:
    """Run the four flatness checks on every .inst file in a directory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise InstanceError(f"corpus directory not found: {directory}")
    rows = []
    worst = 0
    for path in sorted(directory.glob("*.inst")):
        row: dict = {"file": path.name}
        try:
            spec = load_instance_file(path)
            inst = build_instance(spec)
            row["n"] = spec.n
            row["m"] = spec.m
            row["checks"] = {}
            row["error"] = None
            for label, fn in _CORPUS_CHECKS:
                verdict = fn(inst).overall
                row["checks"][label] = verdict
                if verdict == FAILS:
                    worst = max(worst, 1)
                elif verdict == INCONCLUSIVE:
                    worst = max(worst, 2)
        except InstanceError as exc:
            row.update(n=None, m=None, checks=None, error=str(exc))
            worst = max(worst, 2)
        except Exception as exc:  # a fault of the program: keep it to this file's row
            row.update(n=None, m=None, checks=None, error=f"internal error: {_fault_text(exc)}")
            print(f"internal error in {path.name}: {_fault_text(exc)}{_fault_location(exc)}", file=sys.stderr)
            worst = 3
        rows.append(row)
    document = {
        "tool": "kropinaflat",
        "version": __version__,
        "command": "corpus",
        "directory": str(directory),
        "rows": rows,
        "exit_code": worst,
    }
    return document, worst


def _render_corpus_text(document: dict) -> str:
    headers = ["instance", "n", "m"] + [label for label, _ in _CORPUS_CHECKS] + ["error"]
    table = [headers]
    for row in document["rows"]:
        cells = [row["file"], str(row["n"] or "-"), str(row["m"] or "-")]
        if row["checks"] is None:
            cells += ["-"] * len(_CORPUS_CHECKS)
        else:
            cells += [row["checks"][label] for label, _ in _CORPUS_CHECKS]
        cells.append(row["error"] or "-")
        table.append(cells)
    widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
    lines = [f"kropinaflat {document['version']} - corpus: {document['directory']}"]
    for r in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    lines.append(f"exit: {document['exit_code']}")
    return "\n".join(lines)


# -- entry point ---------------------------------------------------------------

def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kropinaflat",
        description="Exact flatness checks for Kropina-changed m-th root metrics",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in CHECK_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="instance file")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("text", "json"), default=None)
        if name == "crosscheck":  # the only command that samples points
            p.add_argument("--seed", type=int, default=None, help="override the instance seed")
            p.add_argument("--points", type=int, default=None, help="override numeric_points")

    p = sub.add_parser("corpus")
    p.add_argument("--input", default=None, help="directory of instance files (default: bundled corpus)")
    p.add_argument("--out", help="write the summary to this path instead of stdout")
    p.add_argument("--format", choices=("text", "json"), default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    fmt = args.format or ("json" if args.out else "text")
    started = time.monotonic()
    try:
        if args.command == "corpus":
            directory = args.input if args.input else corpus_dir()
            document, code = run_corpus(directory)
            rendered = (
                _render_json(document) if fmt == "json" else _render_corpus_text(document) + "\n"
            )
            if args.out:
                Path(args.out).write_text(rendered, encoding="utf-8")
            else:
                sys.stdout.write(rendered)
        else:
            spec = load_instance_file(args.input)
            inst = build_instance(spec)
            seed, points = getattr(args, "seed", None), getattr(args, "points", None)
            reports = run_command(args.command, spec, seed, points, inst)
            document = _document(args.command, spec, reports, inst)
            code = document["exit_code"]
            _emit(document, fmt, args.out)
    except (InstanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a fault of the program, not of the input
        print(f"internal error: {_fault_text(exc)}{_fault_location(exc)}", file=sys.stderr)
        return 3
    finally:
        elapsed = (time.monotonic() - started) * 1000.0
        print(f"elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
