"""Write the expected-outcome files in bench/expected/ from the current program.

    python3 bench/freeze.py [WORKLOAD ...]    # default: every workload, both input pools

Run this only on the commit whose outcomes are the reference (the commit
that introduced the benchmark); afterwards the files are what every op is
checked against, and a changed verdict is an error, not a new baseline.

Besides the program's own verdicts, each n=2 instance's residuals are
re-derived with sympy from the instance text (never through the package's
parser or differentiation), and freezing stops if sympy disagrees on which
residuals vanish.  Instances where sympy takes longer than SYMPY_SECONDS are
recorded as unconfirmed.
"""
from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from probe import null_span as no_span  # noqa: E402
from workloads import CORPUS_DIR, GEN_COMMANDS, Op, run_op, sha256  # noqa: E402

SYMPY_SECONDS = 20


def sympy_zero_residuals(spec) -> dict | None:
    """Which cleared residuals R_l, H_l vanish, by sympy from the text; None on timeout."""
    import sympy as sp

    xs = sp.symbols("x1 x2")
    ys = sp.symbols("y1 y2")
    names = {f"x{i + 1}": xs[i] for i in range(2)} | {f"y{i + 1}": ys[i] for i in range(2)}
    a = sp.sympify(spec.a_text.replace("^", "**"), locals=names)
    b = sp.sympify(spec.beta_text.replace("^", "**"), locals=names)
    m = spec.m
    L = a ** sp.Rational(4, m) / b**2
    F = a ** sp.Rational(2, m) / b

    def is_zero(expr) -> bool:
        return sp.cancel(sp.together(sp.powsimp(sp.expand(expr), force=True))) == 0

    def on_alarm(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(SYMPY_SECONDS)
    try:
        out = {}
        for l in range(2):
            dually = sum(sp.diff(L, xs[k], ys[l]) * ys[k] for k in range(2)) - 2 * sp.diff(L, xs[l])
            out[f"R_{l + 1}"] = is_zero(m**2 * b**4 * a ** (2 - sp.Rational(4, m)) * dually)
            hamel = sum(sp.diff(F, xs[k], ys[l]) * ys[k] for k in range(2)) - sp.diff(F, xs[l])
            out[f"H_{l + 1}"] = is_zero(m**2 * b**3 * a ** (2 - sp.Rational(2, m)) * hamel)
        return out
    except TimeoutError:
        return None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def confirm_with_sympy(prog, key: str, spec) -> bool | None:
    if spec.n != 2:
        return None
    zero = sympy_zero_residuals(spec)
    if zero is None:
        return None
    inst = prog.instancefile.build_instance(spec)
    for l in (1, 2):
        mine = {f"R_{l}": prog.kropina.dually_flat_residual(inst, l).is_zero(),
                f"H_{l}": prog.kropina.hamel_residual(inst, l).is_zero()}
        for name, value in mine.items():
            if zero[name] != value:
                raise SystemExit(f"{key}: sympy says {name} zero={zero[name]}, the program {value}")
    return True


def freeze_corpus() -> dict:
    wl = workloads.Workload("corpus", workloads.load_program(), {}, [], [])
    out = run_op(wl, Op("corpus", None, "corpus"), no_span)
    return {
        "directory": CORPUS_DIR,
        "exit_code": out.exit_code,
        "rows": [{"file": f, "checks": c, "error": e} for f, c, e in out.verdicts],
        "text_sha256": sha256(out.rendered),
        "json_sha256": sha256(wl.prog.cli._render_json(out.document)),
        "pinned_by_tests": "tests/test_acceptance.py criterion 4 (minkowski holds for all four "
        "checks; perturbed fails dually-flat and projectively-flat; beta-variable fails theorem1) "
        "and criterion 9 (six rows, no errors, exit code 1)",
    }


def freeze_gen(pool: str) -> dict:
    prog = workloads.load_program()
    wl = workloads.Workload("gen-checks", prog, {}, [], [])
    instances = {}
    for inst in workloads.instances_for("gen-checks", pool):
        spec = prog.instancefile.parse_instance_text(inst.text)
        entry = {"text_sha256": sha256(inst.text), "n": inst.n, "m": inst.m,
                 "sympy_confirmed": confirm_with_sympy(prog, inst.key, spec), "commands": {}}
        for command in GEN_COMMANDS:
            out = run_op(wl, Op(inst.key, inst, command), no_span)
            entry["commands"][command] = {
                "exit_code": out.exit_code,
                "verdicts": out.verdicts,
                "report_sha256": sha256(out.rendered),
            }
        instances[inst.key] = entry
        print(f"gen-checks {pool} {inst.key}: sympy {entry['sympy_confirmed']}", file=sys.stderr)
    return {"pool_seed": workloads.POOL_SEEDS[pool], "instances": instances}


def freeze_cross(pool: str) -> dict:
    prog = workloads.load_program()
    wl = workloads.Workload("crosscheck", prog, {}, [], [])
    instances = {}
    for inst in workloads.instances_for("crosscheck", pool):
        spec = prog.instancefile.parse_instance_text(inst.text)
        out = run_op(wl, Op(inst.key, inst, "crosscheck"), no_span)
        entry = {"text_sha256": sha256(inst.text), "n": inst.n, "m": inst.m,
                 "sympy_confirmed": confirm_with_sympy(prog, inst.key, spec),
                 "admissible": out.error is None}
        if out.error is None:
            entry["report_sha256"] = sha256(out.rendered)
            entry["verdicts"] = out.verdicts
        else:
            if workloads.ADMISSIBLE_ERROR not in out.error:
                raise SystemExit(f"{inst.key}: unexpected error {out.error}")
            entry["error"] = out.error
        instances[inst.key] = entry
        print(f"crosscheck {pool} {inst.key}: {out.verdicts or out.error}", file=sys.stderr)
    return {"pool_seed": workloads.POOL_SEEDS[pool], "expect": "holds at every admissible instance; exit 2 'no admissible sample points' "
            "otherwise", "instances": instances}


def write(name: str, pool: str, data: dict) -> None:
    path = workloads.expected_path(name, pool)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(names: list[str]) -> int:
    names = names or list(workloads.NAMES)
    if "corpus" in names:
        write("corpus", "main", freeze_corpus())
    for pool in workloads.POOL_SEEDS:
        if "gen-checks" in names:
            write("gen-checks", pool, freeze_gen(pool))
        if "crosscheck" in names:
            write("crosscheck", pool, freeze_cross(pool))
    return 0


if __name__ == "__main__":
    import os

    os.chdir(BENCH.parent)
    sys.exit(main(sys.argv[1:]))
