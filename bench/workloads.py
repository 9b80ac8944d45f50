"""The three benchmark workloads: their inputs, their ops and the expected outcomes.

An *op* is one user-visible command, driven through the same public calls
the `kropinaflat` CLI makes:

  corpus      `cli.run_corpus` on the bundled corpus directory (the files
              are re-read every time) plus `cli._render_corpus_text`
  gen-checks  instance text -> `instancefile.parse_instance_text` ->
              `cli.run_command(<check>)` -> `cli._document` -> `cli._render_json`
  crosscheck  the same path with the `crosscheck` command, at the 20
              points the instance file's own seed samples

Each workload's input set is fixed by a pool seed (see `POOL_SEEDS`), so
that every op has an expected outcome frozen from the seed commit in
`bench/expected/`, and the run seed sets the order of the ops.  Letting the
run seed draw the instances, or the crosscheck sample points, would move
the figures by more than the benchmark's bounds from one seed to the next:
per-op cost varies several-fold between instances.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import gen

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
CORPUS_DIR = "src/kropinaflat/corpus"  # relative, so reports do not depend on the checkout path

NAMES = ("corpus", "gen-checks", "crosscheck")
GEN_COMMANDS = (
    "check-dually-flat",
    "check-theorem1",
    "check-projectively-flat",
    "check-prop31",
)
GEN_SHAPES = ((2, 3), (3, 4), (4, 6))
GEN_PER_SHAPE = 6
GEN_X_DEGREE = 3
CROSS_GENERATED = 24  # alternating m = 3, 4 at n = 2
CROSS_X_DEGREE = 2
CROSS_CORPUS_FILE = "random-seed-11.inst"

# Pool seeds: "main" is the one every run uses; "heldout" is kept back so
# that a claimed gain can be confirmed on inputs it was not tuned on.
POOL_SEEDS = {"main": 20140927, "heldout": 1409735}

ADMISSIBLE_ERROR = "admissible sample points"


def load_program() -> SimpleNamespace:
    """Import the package modules the benchmark drives (fresh if purged)."""
    names = ("cli", "instancefile", "kropina", "finsler", "algebra.parser", "algebra.poly",
             "algebra.powerexpr", "reports")
    mods = {n.split(".")[-1]: importlib.import_module(f"kropinaflat.{n}") for n in names}
    return SimpleNamespace(**mods)


def purge_program() -> None:
    for name in [m for m in sys.modules if m == "kropinaflat" or m.startswith("kropinaflat.")]:
        del sys.modules[name]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Instance:
    key: str
    text: str
    n: int
    m: int


@dataclass
class Op:
    key: str
    instance: Instance | None
    command: str


@dataclass
class Outcome:
    exit_code: int
    verdicts: list
    rendered: str = ""
    document: dict | None = None
    error: str | None = None


@dataclass
class Workload:
    name: str
    prog: SimpleNamespace
    expected: dict
    instances: list[Instance]
    ops: list[Op]


# -- inputs ------------------------------------------------------------------

def gen_instances(pool_seed: int) -> list[Instance]:
    rng = random.Random(pool_seed)
    out = []
    for n, m in GEN_SHAPES:
        i = 0
        while i < GEN_PER_SHAPE:
            key = f"n{n}m{m}-{i}"
            try:
                text = gen.instance_text(rng, n, m, GEN_X_DEGREE, f"gen-checks {key}")
            except ValueError:
                continue  # a draw that cancels to zero; the recipe's own guard
            out.append(Instance(key, text, n, m))
            i += 1
    return out


def cross_instances(pool_seed: int) -> list[Instance]:
    path = ROOT / CORPUS_DIR / CROSS_CORPUS_FILE
    out = [Instance(CROSS_CORPUS_FILE, path.read_text(encoding="utf-8"), 2, 4)]
    rng = random.Random(pool_seed + 1)
    i = 0
    while i < CROSS_GENERATED:
        m = 3 + i % 2
        key = f"n2m{m}-{i}"
        try:
            text = gen.instance_text(rng, 2, m, CROSS_X_DEGREE, f"crosscheck {key}")
        except ValueError:
            continue
        out.append(Instance(key, text, 2, m))
        i += 1
    return out


def instances_for(name: str, pool: str) -> list[Instance]:
    if name == "gen-checks":
        return gen_instances(POOL_SEEDS[pool])
    if name == "crosscheck":
        return cross_instances(POOL_SEEDS[pool])
    return []


def expected_path(name: str, pool: str) -> Path:
    suffix = "" if pool == "main" or name == "corpus" else f"-{pool}"
    return EXPECTED_DIR / f"{name}{suffix}.json"


def build(name: str, seed: int, pool: str = "main", limit: int | None = None) -> Workload:
    """Import the program, generate the inputs and load the expected outcomes."""
    prog = load_program()
    expected = json.loads(expected_path(name, pool).read_text(encoding="utf-8"))
    instances = instances_for(name, pool)
    for inst in instances:
        frozen = expected["instances"][inst.key]["text_sha256"]
        if sha256(inst.text) != frozen:
            raise RuntimeError(f"generated input {inst.key} differs from the frozen one")
    if limit is not None:
        instances = instances[:limit] if name == "crosscheck" else [
            i for k, i in enumerate(instances) if k % GEN_PER_SHAPE < limit
        ]
    rng = random.Random(seed)
    if name == "corpus":
        ops = [Op("corpus", None, "corpus")]
    elif name == "gen-checks":
        ops = [Op(f"{i.key}/{c}", i, c) for i in instances for c in GEN_COMMANDS]
    else:
        ops = [Op(i.key, i, "crosscheck") for i in instances]
    rng.shuffle(ops)
    return Workload(name, prog, expected, instances, ops)


# -- running one op ----------------------------------------------------------

def run_op(wl: Workload, op: Op, span) -> Outcome:
    """Run one op the way the CLI does; `span(name)` wraps each public call."""
    cli = wl.prog.cli
    if op.command == "corpus":
        with span("cli.run_corpus"):
            document, code = cli.run_corpus(CORPUS_DIR)
        with span("cli.render_text"):
            rendered = cli._render_corpus_text(document) + "\n"
        verdicts = [[row["file"], row["checks"], row["error"]] for row in document["rows"]]
        return Outcome(code, verdicts, rendered, document)
    with span("instancefile.parse_text"):
        spec = wl.prog.instancefile.parse_instance_text(op.instance.text, source=f"{op.instance.key}.inst")
    try:
        with span("cli.run_command"):
            reports = cli.run_command(op.command, spec, None, None)
    except ValueError as exc:  # the CLI maps this to exit code 2
        return Outcome(2, [], error=str(exc))
    with span("cli.document"):
        document = cli._document(op.command, spec, reports)
    with span("cli.render_json"):
        rendered = cli._render_json(document)
    verdicts = [[c["name"], c["overall"], [k["verdict"] for k in c["conditions"]]] for c in document["checks"]]
    return Outcome(document["exit_code"], verdicts, rendered, document)


# -- expected outcomes -------------------------------------------------------

OK = "ok"
KNOWN_DEFECT = "known-defect"
WRONG = "wrong"


def judge(wl: Workload, op: Op, out: Outcome) -> str:
    """Compare an op's outcome with the expected-outcome file."""
    exp = wl.expected
    if wl.name == "corpus":
        want = [[r["file"], r["checks"], r["error"]] for r in exp["rows"]]
        return OK if out.exit_code == exp["exit_code"] and out.verdicts == want else WRONG
    frozen = exp["instances"][op.instance.key]
    if wl.name == "gen-checks":
        want = frozen["commands"][op.command]
        ok = out.error is None and out.exit_code == want["exit_code"] and out.verdicts == want["verdicts"]
        return OK if ok else WRONG
    if not frozen["admissible"]:
        ok = out.exit_code == 2 and out.error is not None and ADMISSIBLE_ERROR in out.error
        return OK if ok else WRONG
    if out.error is None and out.exit_code == 0:
        return OK
    if out.error is None and out.exit_code == 1:
        return KNOWN_DEFECT if oracle_tolerance_defect(wl, op, out) else WRONG
    return WRONG


def oracle_tolerance_defect(wl: Workload, op: Op, out: Outcome) -> bool:
    """True when every failed oracle point is the known tolerance defect.

    The oracle accepts a disagreement up to max(1e-6, 100 h^2) at h = 1e-4.
    Where the residual is right, the disagreement is the stencil's
    truncation error, which shrinks about 100x when h shrinks 10x; where it
    is wrong, the disagreement stays put.  The check repeats each failed
    point at h = 1e-3 and h = 1e-4 and asks for at least a 20x shrink.  It
    runs outside the timed region.
    """
    kropina = wl.prog.kropina
    spec = wl.prog.instancefile.parse_instance_text(op.instance.text)
    inst = wl.prog.instancefile.build_instance(spec)
    failed = [r for r in out.document["checks"][0]["derived_facts"]["results"] if not r["passed"]]
    for r in failed:
        point = (tuple(Fraction(v) for v in r["point"]["x"]), tuple(Fraction(v) for v in r["point"]["y"]))
        coarse = kropina.numeric_crosscheck(inst, r["kind"], point, 1e-3).max_disagreement
        fine = kropina.numeric_crosscheck(inst, r["kind"], point, 1e-4).max_disagreement
        if not fine * 20 <= coarse:
            return False
    return bool(failed)
