#!/usr/bin/env python3
"""hmgroups benchmark: seeded workloads, answer-checked, end to end and per layer.

    python3 perfbench/run.py --workload stats-stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload structure --seed 1 --smoke --trace 1
    python3 perfbench/run.py --self-test

Run it from the root of a source tree: it imports hmgroups from ./src,
in-process and single-threaded.  Each op (one user command) gets freshly
loaded catalog entries before its timed interval starts, and every answer
is checked against perfbench/oracle.py, which does not use hmgroups, after
the interval ends.  A run measures whole blocks until `--seconds` of op
time has passed; times are reported in reference seconds (see REF_SPEED and
Setup).
The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
when `--trace 0` and the per-layer metrics when `--trace 1`.  The run
record (sha, interpreter, CPU, sample counts) is the line before it, and
is also written under .perfbench-out/ with the spans of a traced run.
See perfbench/RATIONALE.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "hmgroups", "data", "small_groups.jsonl")
OUT = os.path.join(ROOT, ".perfbench-out")

import oracle  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 11  # at least this many set-up launches a run (3 in a smoke run)
# Times are reported in reference seconds: the measured seconds of an op times
# the speed of a fixed pure-Python probe just before and just after it, over
# REF_SPEED.  On a shared host the speed of the same code drifts by a third
# within seconds to minutes, and the probe, which uses no hmgroups code, drifts
# with it; the measured seconds are kept in the run record.  Set-up launches
# are scaled by a reference launch instead (see Setup).
REF_SPEED = 600.0  # probe rounds per second at which a reference second is a second
# blocks per pass of a traced run; family-scan records ~500k spans a block
TRACE_BLOCKS = {"stats-stream": 4, "structure": 3, "family-scan": 1}
# stop starting new blocks after this much wall time, so a run ends in time
# even when the program has become much slower
WALL_LIMIT_S = 120.0

END_TO_END = [("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("decided_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

CHECK_METRIC_IDS = ("thm2.2", "thm2.5", "thm2.8", "prop2.6", "prop2.9-2.10", "lemma2.1",
                    "eq9", "congruences", "prop2.1-2.2", "c-convention")
SELF_TIMED = ["exactmath.factorize", "exactmath.divisors", "exactmath.euler_phi",
              "exactmath.is_prime", "exactmath.smallest_prime_divisor",
              "statistics.m_cyclic_closed", "statistics.h_m_dihedral_closed",
              "statistics.m_of_spectrum", "statistics.eval_expr", "statistics.realize",
              "groupkernel.from_generators", "groupkernel.direct_product",
              "groupkernel.order_spectrum", "groupkernel.ensure_table",
              "groupkernel.all_subgroups", "groupkernel.cyclic_subgroups",
              "groupkernel.is_normal", "groupkernel.quotient", "groupkernel.is_isomorphic",
              "families.construct", "verifier.scan_integer_hm", "catalog.validate_catalog",
              "cli.parse_expr"] + [f"verifier.check.{c}" for c in CHECK_METRIC_IDS]
SPAN_CALLS = ["exactmath.factorize", "exactmath.euler_phi", "statistics.m_cyclic_closed",
              "statistics.eval_expr", "groupkernel.from_generators",
              "groupkernel.all_subgroups", "groupkernel.is_isomorphic",
              "families.construct", "cli.parse_expr"]
COUNTERS = ["groupkernel.compose.calls", "groupkernel.perm_order.calls",
            "groupkernel.generated_subgroup.calls", "groupkernel.from_generators.elements",
            "groupkernel.direct_product.elements", "groupkernel.ensure_table.builds",
            "groupkernel.ensure_table.cells", "groupkernel.all_subgroups.subgroups"]
PATHS = ("closed_form", "multiplicative", "brute")


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{s}.self_s", "s") for s in SELF_TIMED]
    names += [(f"{s}.calls", "count") for s in SPAN_CALLS]
    names += [(c, "count") for c in COUNTERS]
    names += [(f"statistics.path.{p}", "count") for p in PATHS]
    names += [("statistics.cap_hits", "count"), ("exactmath.factorize.per_eval", "ratio"),
              ("groupkernel.join_yield", "ratio"), ("cli.import_s", "s"),
              ("catalog.load_catalog.self_s", "s"), ("trace.overhead", "ratio")]
    return names


# -- set-up time -----------------------------------------------------------------------

_LAUNCH = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hmgroups.cli
t1 = time.perf_counter()
hmgroups.catalog.default_catalog()
print(t1 - t0, time.perf_counter() - t1)
"""


# the yardstick of set-up time (see Setup): standard modules only
_REFERENCE = ("import argparse, csv, dataclasses, decimal, email.parser, fractions, json, "
              "logging, pathlib, re, statistics, typing, unittest")
REF_LAUNCH_S = 0.15  # reference-launch seconds at which a reference second is a second


def probe_speed() -> float:
    """Rounds per second of a fixed loop that uses no hmgroups code; the
    median of three rounds of about 2 ms."""
    rounds = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        rounds.append(time.perf_counter() - t0)
    return 1.0 / statistics.median(rounds)


class Setup:
    """Wall time from a fresh interpreter to `import hmgroups.cli` plus the
    default catalog loaded, in reference seconds.

    Start-up work (finding, reading and unmarshalling modules) drifts with
    the host in its own way, which the op probe does not follow, so each
    launch is scaled by a reference launch just before and just after it: a
    fresh interpreter that imports a fixed set of standard modules and no
    hmgroups code.  The run launches after every block, so that the median
    spans the whole run rather than one moment of the host's speed, and tops
    up to a minimum count at the end.  A warm-up launch of each kind comes
    first and is not counted; it also leaves the bytecode cache as an
    installed package has it."""

    def __init__(self):
        self.walls, self.ref_walls, self.imports, self.loads = [], [], [], []
        self._reference()
        self._start()

    def _start(self):
        return subprocess.run([sys.executable, "-c", _LAUNCH, SRC], capture_output=True,
                              text=True, timeout=60, check=True, cwd=ROOT)

    def _reference(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _REFERENCE], capture_output=True, timeout=60,
                       check=True, cwd=ROOT)
        return time.perf_counter() - t0

    def launch(self):
        before = self._reference()
        t0 = time.perf_counter()
        proc = self._start()
        wall = time.perf_counter() - t0
        scale = 2 * REF_LAUNCH_S / (before + self._reference())
        imp, load = map(float, proc.stdout.split())
        self.walls.append(wall)
        self.ref_walls.append(scale * wall)
        self.imports.append(scale * imp)
        self.loads.append(scale * load)

    def result(self, launches: int) -> dict:
        while len(self.walls) < launches:
            self.launch()
        return {"setup_s": statistics.median(self.ref_walls),
                "import_s": statistics.median(self.imports),
                "load_s": statistics.median(self.loads), "launches": len(self.walls),
                "measured_setup_s": statistics.median(self.walls),
                "launch_s": self.ref_walls}


# -- ops ----------------------------------------------------------------------------------


class Runner:
    """Executes ops against hmgroups and checks each answer with the oracle."""

    def __init__(self, workload: str, pkg: dict):
        self.workload = workload
        self.pkg = pkg
        with open(DATA, "rb") as fh:
            self.data = fh.read()
        self.closure = oracle.CatalogClosure(self.data)
        if workload == "family-scan":
            self.table = oracle.FamilyTable(workloads.FAMILY_HI)
            self.catalog_h = oracle.catalog_h_m(self.closure)
        self.records: list[dict] = []
        self.problems: list[str] = []

    def entries(self, op):
        entries = self.pkg["catalog"].load_catalog(self.data)
        if op.perm_seed:
            random.Random(op.perm_seed).shuffle(entries)
        return entries

    def execute(self, op, entries):
        # module attributes are looked up per call, so a tracer's wrappers apply
        p = self.pkg
        if op.kind == "stats":
            return p["statistics"].eval_expr(p["cli"].parse_expr(op.text), entries).to_json()
        if op.kind == "check":
            return p["verifier"].run_checks(entries, [op.check_id])[0]
        if op.kind == "validate":
            return p["catalog"].validate_catalog(entries)
        if op.kind == "iso":
            ga = p["statistics"].realize(p["cli"].parse_expr(op.text), entries)
            gb = p["statistics"].realize(p["cli"].parse_expr(op.other), entries)
            return p["groupkernel"].is_isomorphic(ga, gb)
        if op.kind == "prop2.6":
            return p["verifier"].check_prop_2_6(op.bounds[0])
        if op.kind == "scan":
            return p["verifier"].scan_integer_hm(entries, *op.bounds)
        raise ValueError(f"unknown op kind {op.kind}")

    def verify(self, op, result, n_entries: int) -> list[str]:
        if op.kind == "stats":
            return oracle.check_stats_json(result, op.text, op.atoms, self.closure)
        if op.kind == "check":
            return oracle.check_check_result(op.check_id, result)
        if op.kind == "validate":
            ok = result.ok and result.entry_count == n_entries
            return [] if ok else [f"validate_catalog: {result.summary()}"]
        if op.kind == "iso":
            return [] if result is op.expect else [f"is_isomorphic gave {result}"]
        if op.kind == "prop2.6":
            return oracle.check_prop26_result(result, op.bounds[0])
        return oracle.check_scan_rows(result.rows, *op.bounds, self.table, self.closure,
                                      self.catalog_h)

    @staticmethod
    def must_refuse(op) -> bool:
        """Only a `stats` op above the enumeration cap may raise CapExceeded,
        and it must."""
        return op.kind == "stats" and oracle.must_refuse(op.atoms)

    def run_op(self, op, tracer=None):
        entries = self.entries(op)
        n_entries = len(entries)
        cap_exceeded = self.pkg["groupkernel"].CapExceeded
        if tracer is not None:
            tracer.op_id = len(self.records)
        status, result, error = "decided", None, None
        t0 = time.perf_counter()
        try:
            result = self.execute(op, entries)
        except cap_exceeded as exc:
            status = "refused"
            if not self.must_refuse(op):
                error = f"CapExceeded on an op under the cap: {exc}"
        except Exception as exc:  # any other exception is a wrong answer
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        del entries
        if status == "decided" and not error and self.must_refuse(op):
            error = "answered an op above the enumeration cap"
        if error:
            problems = [error]
        else:
            problems = self.verify(op, result, n_entries) if status == "decided" else []
        if problems:
            status = "failed"
        path = json.loads(result)["path"] if status == "decided" and op.kind == "stats" \
            else None
        if problems:
            label = op.text or op.check_id or op.kind
            self.problems.append(f"{op.kind} {label} {op.other} {op.bounds}: "
                                 f"{'; '.join(problems[:3])}")
        self.records.append({"latency": latency, "status": status, "path": path,
                             "cls": op.cls})

    def run_blocks(self, stream, min_seconds: float | None, blocks: int | None,
                   started: float, setup: Setup, tracer=None) -> dict:
        """Whole blocks, until `blocks` are done or `min_seconds` of op time
        has been measured, or the workload has no fresh inputs left; a set-up
        launch follows every block."""
        first = len(self.records)
        done, op_time = 0, 0.0
        block_s, scales = [], []
        speed = probe_speed()
        while not stream.exhausted():
            before = len(self.records)
            for op in stream.block():
                self.run_op(op, tracer)
                after = probe_speed()
                rec = self.records[-1]
                rec["ref_latency"] = rec["latency"] * (speed + after) / 2 / REF_SPEED
                speed = after
            block = self.records[before:]
            block_s.append(sum(r["latency"] for r in block))
            scales.append(sum(r["ref_latency"] for r in block) / block_s[-1])
            done += 1
            op_time = sum(r["latency"] for r in self.records[first:])
            setup.launch()
            if blocks is not None and done >= blocks:
                break
            if min_seconds is not None and op_time >= min_seconds:
                break
            if time.perf_counter() - started > WALL_LIMIT_S:
                break
        return {"records": self.records[first:], "blocks": done, "op_time": op_time,
                "block_s": block_s, "probe_scales": scales}


# -- metrics ------------------------------------------------------------------------------


def throughput(records, key: str = "ref_latency") -> float:
    decided = sum(r["status"] == "decided" for r in records)
    return decided / sum(r[key] for r in records)


def end_to_end(records, setup, key: str = "ref_latency") -> dict:
    """The end-to-end metrics, from op times in reference seconds (`key` =
    "ref_latency") or in measured seconds ("latency")."""
    total = sum(r[key] for r in records)
    decided = sum(r["status"] == "decided" for r in records)
    # an op that was refused or failed ranks above every completed op; were a
    # percentile to land on one, the whole measured op time stands in for it
    ranked = sorted(r[key] if r["status"] == "decided" else math.inf
                    for r in records)

    def pct(q):
        v = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
        return 1000 * (v if v != math.inf else total)

    return {"ops_per_s": throughput(records, key), "op_ms_p50": pct(0.5),
            "op_ms_p90": pct(0.9), "decided_ratio": decided / len(records),
            "setup_s": setup["setup_s" if key == "ref_latency" else "measured_setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def per_layer(tracer, traced, untraced, setup) -> dict:
    self_s = tracer.self_times()
    calls = tracer.call_counts()
    out = {f"{s}.self_s": self_s.get(s, 0.0) for s in SELF_TIMED}
    out.update({f"{s}.calls": calls.get(s, 0) for s in SPAN_CALLS})
    out.update({c: tracer.counts.get(c, 0) for c in COUNTERS})
    for p in PATHS:
        out[f"statistics.path.{p}"] = sum(r["path"] == p for r in traced)
    out["statistics.cap_hits"] = sum(r["status"] == "refused" for r in traced)
    evals = calls.get("statistics.eval_expr", 0)
    out["exactmath.factorize.per_eval"] = (calls.get("exactmath.factorize", 0) / evals
                                           if evals else 0.0)
    joins = tracer.counts.get("groupkernel.generated_subgroup.in_all_subgroups", 0)
    out["groupkernel.join_yield"] = (tracer.counts.get("groupkernel.all_subgroups.subgroups", 0)
                                     / joins if joins else 0.0)
    out["cli.import_s"] = setup["import_s"]
    out["catalog.load_catalog.self_s"] = setup["load_s"]
    out["trace.overhead"] = throughput(traced) / throughput(untraced)
    return out


def class_summary(records) -> dict:
    """Per op class: ops, median latency and total time, to show where the
    time of a workload goes."""
    by: dict[str, list[float]] = {}
    for r in records:
        by.setdefault(r["cls"], []).append(r["latency"])
    return {c: {"ops": len(v), "median_ms": 1000 * statistics.median(v),
                "total_s": sum(v)} for c, v in sorted(by.items())}


# -- run record ---------------------------------------------------------------------------


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# -- main ----------------------------------------------------------------------------------


def import_package() -> dict:
    if not os.path.isfile(os.path.join(SRC, "hmgroups", "__init__.py")):
        sys.exit(f"no hmgroups source at {SRC}; run from the root of a source tree")
    sys.path.insert(0, SRC)
    import hmgroups
    from hmgroups import (catalog, cli, exactmath, families, groupkernel, statistics,
                          verifier)
    if os.path.dirname(os.path.abspath(hmgroups.__file__)) != os.path.join(SRC, "hmgroups"):
        sys.exit(f"imported hmgroups from {hmgroups.__file__}, not from {SRC}")
    return {"cli": cli, "catalog": catalog, "statistics": statistics,
            "exactmath": exactmath, "groupkernel": groupkernel, "families": families,
            "verifier": verifier}


def run(args) -> dict:
    started = time.perf_counter()
    pkg = import_package()
    setup = Setup()
    runner = Runner(args.workload, pkg)
    stream = workloads.stream(args.workload, args.seed)
    launches = 3 if args.smoke else SETUP_LAUNCHES
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "git_sha": git_sha(),
              "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "cpu_model": cpu_model()}
    os.makedirs(OUT, exist_ok=True)
    if not args.trace:
        res = runner.run_blocks(stream, None if args.smoke else args.seconds,
                                1 if args.smoke else None, started, setup)
        timing = setup.result(launches)
        metrics = end_to_end(res["records"], timing)
        record["measured"] = end_to_end(res["records"], timing, "latency")
        n = len(res["records"])
        record["samples"] = {"op_ms_p50": n, "op_ms_p90": n, "ops_per_s": n,
                             "decided_ratio": n, "setup_s": timing["launches"],
                             "blocks": res["blocks"], "op_time_s": res["op_time"],
                             "block_s": res["block_s"], "probe_scales": res["probe_scales"]}
    else:
        k = 1 if args.smoke else TRACE_BLOCKS[args.workload]
        plain = runner.run_blocks(stream, None, k, started, setup)
        tracer = tracing.Tracer()
        tracer.install(pkg)
        t0 = time.perf_counter()
        try:
            traced = runner.run_blocks(stream, None, k, started, setup, tracer)
        finally:
            tracer.uninstall()
        timing = setup.result(launches)
        metrics = per_layer(tracer, traced["records"], plain["records"], timing)
        spans = os.path.join(OUT, f"spans-{args.workload}.tsv")
        tracer.write_spans(spans, t0)
        record["samples"] = {"traced_ops": len(traced["records"]),
                             "untraced_ops": len(plain["records"]), "blocks_each": k,
                             "spans": len(tracer.start), "setup_launches": timing["launches"]}
        record["spans_file"] = os.path.relpath(spans, ROOT)
    records = runner.records
    failed = sum(r["status"] == "failed" for r in records)
    record["setup_launch_s"] = timing["launch_s"]
    record["classes"] = class_summary(records)
    record["failures"] = runner.problems[:20]
    record["metrics"] = metrics
    record["wall_s"] = time.perf_counter() - started
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    units = dict(END_TO_END if not args.trace else per_layer_names())
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one block per pass and three set-up launches")
    ap.add_argument("--self-test", action="store_true",
                    help="show that the oracle rejects perturbed answers")
    args = ap.parse_args(argv)
    if args.self_test:
        import selftest
        sys.exit(selftest.main(import_package()))
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
