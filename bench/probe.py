"""Span recorder and the per-instance probe pass behind the per-layer metrics.

Spans are recorded only here and in `run.py`, around calls into the
package's public functions; nothing inside `src/` is instrumented.  Each
span holds its name, start, end, parent span and op id, stays in memory,
and is written out once when the run ends.

The probe pass visits every instance of a workload once and calls each
layer's function on its own, so that its self time is measured without the
surrounding op.  Every `*_ms` per-layer metric is the summed self time of
that layer over one probe pass (one visit per instance); counts are summed
the same way unless the name says `max`.  See README.md for which
end-to-end metric each one should move.
"""
from __future__ import annotations

import contextlib
import json
import time
from fractions import Fraction
from pathlib import Path

from refspeed import Kernel
from workloads import (
    CORPUS_DIR,
    GEN_COMMANDS,
    Workload,
    sha256,
)

CHECK_LABELS = ("dually-flat", "theorem1", "projectively-flat", "prop31")
H = 1e-4  # the CLI's crosscheck step


class Tracer:
    """In-memory span tree: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.op_id = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover, in seconds."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def total_ms(self, name: str, op_prefix: str = "") -> float:
        """Summed self time of the spans called `name` whose op id starts with `op_prefix`."""
        selfs = self.self_times()
        return 1000.0 * sum(
            s for rec, s in zip(self.spans, selfs) if rec[0] == name and str(rec[4]).startswith(op_prefix)
        )

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            {"name": n, "start_ms": (s - t0) * 1000, "end_ms": (e - t0) * 1000, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        path.write_text(json.dumps({"spans": spans, "counters": self.counters}) + "\n", encoding="utf-8")


def null_span(name: str):
    return contextlib.nullcontext()


def _terms(polys) -> int:
    return sum(len(p.terms) for p in polys)


def _stencil(point, n: int, step: Fraction):
    """The points `numeric_crosscheck` evaluates A and beta at, for one l."""
    xs, ys = point

    def shift(v, i, d):
        return v[:i] + (v[i] + d,) + v[i + 1:]

    out = [(xs, ys)]
    for l in range(n):
        for k in range(n):
            for dx in (step, -step):
                for dy in (step, -step):
                    out.append((shift(xs, k, dx), shift(ys, l, dy)))
        out.append((shift(xs, l, step), ys))
        out.append((shift(xs, l, -step), ys))
    return out


def probe(wl: Workload, tr: Tracer, kernel: Kernel) -> None:
    """One probe pass over the workload's instances, recorded in `tr`."""
    p = wl.prog
    tr.op_id = "probe"
    crosscheck = wl.name == "crosscheck"
    if wl.name == "corpus":
        paths = sorted(Path(CORPUS_DIR).glob("*.inst"))
        specs = []
        for path in paths:
            with tr.span("instancefile.read"):
                specs.append((path.stem, p.instancefile.load_instance_file(path)))
    else:
        specs = []
        for inst in wl.instances:
            with tr.span("instancefile.read"):
                specs.append((inst.key, p.instancefile.parse_instance_text(inst.text, source=f"{inst.key}.inst")))

    for key, spec in specs:
        tr.op_id = f"probe/{key}"
        _probe_instance(wl, tr, key, spec, crosscheck, kernel)
    tr.op_id = "probe"

    if wl.name == "corpus":
        document, _ = p.cli.run_corpus(CORPUS_DIR)
        with tr.span("cli.render_json"):
            as_json = p.cli._render_json(document)
        with tr.span("cli.render_text"):
            as_text = p.cli._render_corpus_text(document) + "\n"
        frozen = wl.expected
        tr.count("cli.report_bytes", len(as_json.encode()) + len(as_text.encode()))
        tr.count("cli.reports_changed", (sha256(as_json) != frozen["json_sha256"]) + (sha256(as_text) != frozen["text_sha256"]))
    tr.op_id = None


def _probe_instance(wl: Workload, tr: Tracer, key: str, spec, crosscheck: bool, kernel: Kernel) -> None:
    p = wl.prog
    kropina, finsler = p.kropina, p.finsler
    for text in (spec.a_text, spec.beta_text):
        with tr.span("parser.parse"):
            p.parser.parse(text, spec.n)
    inst = p.instancefile.build_instance(spec)
    n, m = inst.n, inst.m

    with tr.span("finsler.derive"):
        d = finsler.derive(inst.metric, inst.beta)
    tr.count("finsler.derived_terms", _terms(
        d.a_i + [x for row in d.a_ij for x in row] + d.a_xl + [d.a_0] + d.a_0l + d.beta_xl + [d.beta_0] + d.beta_0l
    ))

    # Power-expression route, step by step as the residual builder takes it.
    # The expanded route has no public entry point; if a refactor removes
    # the private one, its two metrics read 0.
    expanded_fn = getattr(kropina, "_residual_expanded", None)
    residuals = {}
    for kind, base_fn, factor, clear_a, clear_b in (
        (kropina.DUALLY_FLAT, kropina.kropina_L, 2, 2 - Fraction(4, m), 4),
        (kropina.HAMEL, kropina.kropina_F, 1, 2 - Fraction(2, m), 3),
    ):
        base = base_fn(inst)
        for l in range(1, n + 1):
            with tr.span("powerexpr.diff"):
                mixed = [base.diff("x", k).diff("y", l) for k in range(1, n + 1)]
                first = base.diff("x", l)
            acc = type(base).zero(m, inst.a, inst.b)
            for k in range(n):
                acc = acc + mixed[k].scaled(p.poly.MultiPoly.var_y(n, k + 1))
            acc = (acc - first.scaled(factor)).scaled(m * m)
            with tr.span("powerexpr.normalize"):
                via_steps = acc.normalize(clear_a, clear_b)
            residual_fn = kropina.dually_flat_residual if kind == kropina.DUALLY_FLAT else kropina.hamel_residual
            with tr.span("kropina.residual_pexpr"):
                pexpr = residual_fn(inst, l, self_check=False)
            same = True
            if expanded_fn is not None:
                with tr.span("kropina.residual_expanded"):
                    expanded = expanded_fn(inst, kind, l)
                with tr.span("kropina.route_compare"):
                    same = pexpr == expanded
            if not (same and via_steps == pexpr):
                raise RuntimeError(f"{key}: residual routes disagree for {kind} l={l}")
            residuals[kind, l] = pexpr
            tr.counters["kropina.residual_terms_max"] = max(
                tr.counters.get("kropina.residual_terms_max", 0), len(pexpr.terms)
            )

    _probe_mul(tr, inst, kropina)

    if crosscheck:
        _probe_oracle(wl, tr, key, spec, inst, residuals)
        return

    metric = finsler.MthRootMetric(n, m, inst.a, assert_irreducible=spec.irreducible_asserted)
    # Kernel samples on either side give the host speed the heuristic ran at
    # (finsler.irreducibility_share_46 compares it with op times taken earlier).
    with tr.span("refspeed.kernel"):
        kernel.seconds()
    with tr.span("finsler.irreducibility"):
        metric.irreducibility
    with tr.span("refspeed.kernel"):
        kernel.seconds()
    for poly in residuals.values():
        if not poly.is_zero():
            with tr.span("kropina.witness"):
                p.poly.find_nonzero_point(poly)
            tr.count("kropina.witness_chars", len(str(poly)))
    inst.metric.irreducibility  # theta is timed with irreducibility already cached
    with tr.span("kropina.theta"):
        kropina.extract_theta(inst)

    _probe_eval(tr, inst, [((Fraction(1, 2),) * n, (Fraction(1),) * n)], residuals)

    for label, command in zip(CHECK_LABELS, GEN_COMMANDS):
        fresh = p.instancefile.build_instance(spec)
        check = getattr(kropina, "check_" + label.replace("-", "_"))
        with tr.span(f"kropina.check.{label}"):
            report = check(fresh)
        if wl.name == "gen-checks":
            document = p.cli._document(command, spec, [report])
            frozen = wl.expected["instances"][key]["commands"][command]["report_sha256"]
            _probe_render(tr, p.cli, document, frozen)


def _probe_render(tr: Tracer, cli, document: dict, frozen_sha: str) -> None:
    with tr.span("cli.render_json"):
        as_json = cli._render_json(document)
    with tr.span("cli.render_text"):
        cli._render_text(document)
    tr.count("cli.report_bytes", len(as_json.encode()))
    tr.count("cli.reports_changed", sha256(as_json) != frozen_sha)


def _probe_mul(tr: Tracer, inst, kropina) -> None:
    """Products the residual routes form: A*A, A^k*beta^j, and residual-sized ones."""
    a, b = inst.a, inst.b
    c1, c2, c3 = kropina.condition_brackets(inst, 1)
    a2, b2 = a * a, b * b
    pairs = [(a, a), (a2, b2 * b2), (a2 * a, b2 * b), (b2, c1), (a * b, c2), (a2, c3)]
    for x, y in pairs:
        with tr.span("poly.mul"):
            x * y
        tr.count("poly.mul_pairs", len(x.terms) * len(y.terms))


def _probe_eval(tr: Tracer, inst, points, residuals) -> None:
    """Exact evaluation at the oracle's stencil points (h = 1e-4 as a Fraction)."""
    step = Fraction(H)
    count = 0
    with tr.span("poly.eval"):
        for point in points:
            for xs, ys in _stencil(point, inst.n, step):
                inst.a.evaluate(xs, ys)
                inst.b.evaluate(xs, ys)
                count += 2
            for poly in residuals.values():
                poly.evaluate(*point)
                count += 1
    tr.count("poly.evals", count)


def _probe_oracle(wl: Workload, tr: Tracer, key: str, spec, inst, residuals) -> None:
    p = wl.prog
    kropina = p.kropina
    try:
        with tr.span("kropina.sample_points"):
            points = kropina.sample_admissible_points(inst, spec.numeric_points, spec.seed)
    except ValueError:
        return  # the documented exit-2 case: nothing for the oracle to do
    for kind in (kropina.DUALLY_FLAT, kropina.HAMEL):
        for point in points:
            with tr.span("kropina.oracle"):
                kropina.numeric_crosscheck(inst, kind, point, H)
    _probe_eval(tr, inst, points, residuals)
    reports = p.cli.run_command("crosscheck", spec, None, None)
    document = p.cli._document("crosscheck", spec, reports)
    _probe_render(tr, p.cli, document, wl.expected["instances"][key]["report_sha256"])


def layer_metrics(wl: Workload, tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one probe pass (see the module docstring)."""
    ms = lambda name: tr.total_ms(name, "probe")
    c = tr.counters
    out = {
        "instancefile.read_ms": ms("instancefile.read"),
        "parser.parse_ms": ms("parser.parse"),
        "finsler.derive_ms": ms("finsler.derive"),
        "finsler.derived_terms": c.get("finsler.derived_terms", 0),
        "finsler.irreducibility_ms": ms("finsler.irreducibility"),
        "powerexpr.diff_ms": ms("powerexpr.diff"),
        "powerexpr.normalize_ms": ms("powerexpr.normalize"),
        "kropina.residual_pexpr_ms": ms("kropina.residual_pexpr"),
        "kropina.residual_expanded_ms": ms("kropina.residual_expanded"),
        "kropina.route_compare_ms": ms("kropina.route_compare"),
        "kropina.residual_terms_max": c.get("kropina.residual_terms_max", 0),
        "kropina.witness_ms": ms("kropina.witness"),
        "kropina.witness_chars": c.get("kropina.witness_chars", 0),
        "kropina.theta_ms": ms("kropina.theta"),
        "kropina.sample_points_ms": ms("kropina.sample_points"),
        "kropina.oracle_ms": ms("kropina.oracle"),
        "poly.mul_pairs_per_s": c.get("poly.mul_pairs", 0) / max(ms("poly.mul") / 1000.0, 1e-12),
        "poly.eval_us": 1000.0 * ms("poly.eval") / max(c.get("poly.evals", 0), 1),
        "cli.render_json_ms": ms("cli.render_json"),
        "cli.render_text_ms": ms("cli.render_text"),
        "cli.report_bytes": c.get("cli.report_bytes", 0),
        "cli.reports_changed": c.get("cli.reports_changed", 0),
    }
    checks = 0.0
    for label in CHECK_LABELS:
        out[f"kropina.check_ms.{label}"] = ms(f"kropina.check.{label}")
        checks += out[f"kropina.check_ms.{label}"]
    routes = out["kropina.residual_pexpr_ms"] + out["kropina.residual_expanded_ms"] + out["kropina.route_compare_ms"]
    if wl.name == "crosscheck":
        spent = out["kropina.sample_points_ms"] + out["kropina.oracle_ms"]
        once = out["kropina.sample_points_ms"] + out["kropina.residual_pexpr_ms"] + ms("poly.eval")
    else:
        spent = checks
        once = routes + out["kropina.witness_ms"] + out["finsler.irreducibility_ms"] + out["kropina.theta_ms"]
    out["kropina.redundancy"] = spent / once if once else 0.0
    return out
