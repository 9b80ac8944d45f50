"""kropinaflat benchmark: one workload per run, closed loop, single client.

    python3 bench/run.py --workload gen-checks --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --smoke

Each run sets the workload up several times (import, input generation,
loading of the expected outcomes) and reports the median as `setup_s`.  It
then runs whole cycles over the workload's ops, one op after another,
stopping at the cycle boundary nearest to `--seconds` of op time once at
least ten latencies lie beyond the workload's tail percentile, checks every op's outcome
against `bench/expected/`, and prints a summary followed by one JSON line.

With `--trace 0` the JSON line holds the end-to-end metrics.  With
`--trace 1` the cycles alternate between untraced and traced (their
difference is `trace.overhead_ms`), a probe pass times each layer on each
instance, the span tree goes to `bench/out/`, and the JSON line holds the
per-layer metrics.  `--heldout` swaps in the held-out input pool.  See
README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from probe import Tracer, layer_metrics, null_span, probe  # noqa: E402
from refspeed import Kernel, scale  # noqa: E402

SETUP_REPS = 15
# The tail percentile of each workload is fixed, so that a faster program
# (more samples) reports the same percentile; a run goes on until at least
# ten samples lie beyond it.
TAIL_PERCENTILE = {"corpus": 90, "gen-checks": 90, "crosscheck": 75}


class Loop:
    """Outcome and latency of every op the timed loop ran.

    `latencies` are wall times; `adjusted` are the same times at reference
    host speed (see refspeed.py), which the end-to-end metrics report.
    """

    def __init__(self):
        self.keys: list[str] = []
        self.latencies: list[float] = []
        self.adjusted: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.wrong = 0
        self._judged: dict[tuple, str] = {}

    def record(self, wl, op, seconds: float, factor: float, out) -> None:
        self.attempted += 1
        self.keys.append(op.key)
        self.latencies.append(seconds)
        self.adjusted.append(seconds * factor)
        if out is None:
            verdict = workloads.WRONG
        else:
            key = (op.key, out.exit_code, out.error, workloads.sha256(out.rendered))
            if key not in self._judged:
                self._judged[key] = workloads.judge(wl, op, out)
            verdict = self._judged[key]
        if verdict != workloads.OK:
            self.failed += 1
            if verdict == workloads.KNOWN_DEFECT:
                self.known_defect += 1
            else:
                self.wrong += 1
                print(f"unexpected outcome: {op.key} ({op.command})", file=sys.stderr)


def run_cycle(wl, loop: Loop, kernel: Kernel, tracer: Tracer | None, cycle: int) -> float:
    """Run every op once, each between two kernel samples; returns the summed op time in seconds."""
    span = tracer.span if tracer else null_span
    total = 0.0
    for op in wl.ops:
        if tracer:
            tracer.op_id = f"{cycle}/{op.key}"
        before = kernel.seconds()
        started = time.perf_counter()
        try:
            with span("op"):
                out = workloads.run_op(wl, op, span)
        except Exception:  # an op that raises is counted as failed; the loop goes on
            traceback.print_exc()
            out = None
        elapsed = time.perf_counter() - started
        factor = scale(before, kernel.seconds())
        total += elapsed
        loop.record(wl, op, elapsed, factor, out)
    if tracer:
        tracer.op_id = None
    return total


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def set_up(name: str, seed: int, pool: str, reps: int, limit: int | None, kernel: Kernel):
    """Set the workload up `reps` times; median set-up time at reference host speed."""
    times = []
    for _ in range(reps):
        gc.collect()  # every set-up starts from the same collector state
        before = kernel.seconds()
        started = time.perf_counter()
        workloads.purge_program()
        wl = workloads.build(name, seed, pool, limit)
        elapsed = time.perf_counter() - started
        times.append(elapsed * scale(before, kernel.seconds()))
    return wl, statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool, pool: str = "main",
                 reps: int = SETUP_REPS, limit: int | None = None) -> dict:
    kernel = Kernel()
    wl, setup_s = set_up(name, seed, pool, reps, limit, kernel)
    loop = Loop()
    tracer = Tracer() if trace else None
    spent = {False: [], True: []}  # op time per cycle, untraced and traced
    tail_pct = TAIL_PERCENTILE[name]
    min_ops = math.ceil(10 / (1 - tail_pct / 100.0))  # ten samples beyond the tail percentile
    cycle = 0
    while True:
        traced = trace and cycle % 2 == 1
        spent[traced].append(run_cycle(wl, loop, kernel, tracer if traced else None, cycle))
        cycle += 1
        done = sum(spent[False]) + sum(spent[True])
        # Stop at the cycle boundary nearest to `seconds`, so that a run's
        # length overshoots by at most half a cycle whatever the cycle's size.
        enough = done + done / cycle / 2 >= seconds and loop.attempted >= min_ops
        if (enough or limit is not None) and (not trace or spent[True]):
            break
    lat = loop.adjusted
    result = {
        "workload": name,
        "seed": seed,
        "pool": pool,
        "trace": int(trace),
        "cycles": cycle,
        "ops_per_cycle": len(wl.ops),
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "known_defect": loop.known_defect,
        "error_rate": loop.failed / loop.attempted,
    }
    if not trace:
        tail, beyond = percentile(lat, tail_pct)
        result.update(tail_percentile=tail_pct, tail_beyond=beyond,
                      wall_ms_p50=1000.0 * statistics.median(loop.latencies),
                      wall_ops_per_s=len(loop.latencies) / sum(loop.latencies))
        result["metrics"] = {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / sum(lat),
            "op_ms_p50": 1000.0 * statistics.median(lat),
            "op_ms_tail": 1000.0 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result

    probe(wl, tracer, kernel)
    metrics = layer_metrics(wl, tracer)
    per_op = lambda cycles: sum(cycles) / (len(cycles) * len(wl.ops))
    metrics["trace.overhead_ms"] = 1000.0 * (per_op(spent[True]) - per_op(spent[False]))
    metrics["finsler.irreducibility_share_46"] = irreducibility_share(wl, tracer, loop)
    result["metrics"] = metrics
    out_path = BENCH / "out" / f"trace-{name}-{pool}-seed{seed}.json"
    tracer.dump(out_path)
    result["trace_file"] = str(out_path.relative_to(ROOT))
    return result


def irreducibility_share(wl, tracer: Tracer, loop: Loop) -> float:
    """Share of the n=4, m=6 theorem1/prop31 op time the irreducibility heuristic takes.

    Both commands run the heuristic once per op; the op times come from the
    timed cycles, the heuristic's time from the probe pass, both at
    reference host speed, since the two are measured at different moments.
    """
    heavy = [i.key for i in wl.instances if (i.n, i.m) == (4, 6)]
    wanted = {f"{key}/{cmd}" for key in heavy for cmd in ("check-theorem1", "check-prop31")}
    cycles = loop.attempted / len(wl.ops)
    heavy_ms = 1000.0 * sum(t for k, t in zip(loop.keys, loop.adjusted) if k in wanted) / cycles
    if not heavy_ms:
        return 0.0
    irr = 0.0
    for key in heavy:
        kernel_s = [s[2] - s[1] for s in tracer.spans if s[0] == "refspeed.kernel" and s[4] == f"probe/{key}"]
        irr += tracer.total_ms("finsler.irreducibility", f"probe/{key}") * scale(*kernel_s)
    return 2 * irr / heavy_ms


def summary(result: dict, units: dict) -> list[str]:
    lines = [
        f"kropinaflat benchmark: workload={result['workload']} seed={result['seed']} "
        f"pool={result['pool']} trace={result['trace']}",
        f"  closed loop, one client: {result['attempted']} ops in {result['cycles']} cycles "
        f"of {result['ops_per_cycle']}",
    ]
    notes = {
        "setup_s": f"median of {SETUP_REPS} set-ups",
        "ops_per_s": f"{result['attempted']} ops",
        "op_ms_p50": f"{result['attempted']} samples",
        "op_ms_tail": f"p{result.get('tail_percentile')}, {result.get('tail_beyond')} samples beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, value in result["metrics"].items():
        lines.append(f"  {name:34s} {value:14.4f} {units.get(name, ''):6s} {notes.get(name, '')}")
    if "wall_ms_p50" in result:
        lines.append(f"  times above are at reference host speed (refspeed.py); by the wall clock: "
                     f"op_ms_p50 {result['wall_ms_p50']:.4f} ms, ops_per_s {result['wall_ops_per_s']:.4f} 1/s")
    lines.append(
        f"  {'error_rate':34s} {result['error_rate']:14.4f} {'share':6s} "
        f"{result['failed']} of {result['attempted']} ops differ from bench/expected "
        f"({result['known_defect']} of them the known oracle-tolerance defect)"
    )
    if "trace_file" in result:
        lines.append(f"  spans: {result['trace_file']}")
    return lines


def result_line(result: dict, units: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in result["metrics"].items()},
    })


def declared_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def smoke() -> int:
    """Every workload once at tiny size, traced and untraced: all metric names present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = declared_units()
    for name in workloads.NAMES:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run_workload(name, 1, 0.0, trace, reps=1, limit=1 if name == "gen-checks" else 3)
            missing = {m["name"] for m in wanted} - set(result["metrics"])
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            if missing or extra:
                raise SystemExit(f"smoke: {name} trace={trace}: missing {missing}, undeclared {extra}")
            if not (result["attempted"] >= 1 and 0.0 <= result["error_rate"] <= 1.0):
                raise SystemExit(f"smoke: {name}: error_rate not computed")
            print("\n".join(summary(result, units)))
    print("smoke ok")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is per workload."""
    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.heldout:
            cmd.append("--heldout")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true", help="use the held-out input pool")
    parser.add_argument("--smoke", action="store_true", help="fast self-test of every workload")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "kropinaflat" / "__init__.py").is_file():
        print(f"error: no kropinaflat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    units = declared_units()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          "heldout" if args.heldout else "main")
    print("\n".join(summary(result, units)))
    print(result_line(result, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
