"""Self-test of the benchmark: the oracle accepts the program's true answers
and rejects perturbed ones, CapExceeded is a refusal only on an op above the
cap, generation is seeded and never repeats an input,
the tracer restores what it wraps, and BENCHMARK.json names exactly the
metrics run.py emits.  Run with `python3 perfbench/run.py --self-test`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from fractions import Fraction

import oracle
import run
import tracer as tracing
import workloads


def main(pkg) -> int:
    failures: list[str] = []
    passed = 0

    def expect(cond: bool, what: str):
        nonlocal passed
        if cond:
            passed += 1
        else:
            failures.append(what)

    with open(run.DATA, "rb") as fh:
        data = fh.read()
    closure = oracle.CatalogClosure(data)
    entries = pkg["catalog"].load_catalog(data)
    parse, evaluate = pkg["cli"].parse_expr, pkg["statistics"].eval_expr

    # stats answers: true ones pass; h_m off by 1/n and one element moved
    # between two orders are caught
    for atoms in [(("D", 24),), (("Q", 16), ("C", 9)), (("Cat", 16, 3), ("C", 4)),
                  (("S", 4), ("C", 6)), (("C", 999999999989),), (("Dic", 6),)]:
        text = workloads.render(atoms)
        got = evaluate(parse(text), entries).to_json()
        expect(not oracle.check_stats_json(got, text, atoms, closure),
               f"oracle rejects the true answer for {text}")
        d = json.loads(got)
        h = Fraction(d["h_m"]) + Fraction(1, d["order"])
        off = dict(d, h_m=f"{h.numerator}/{h.denominator}")
        expect(bool(oracle.check_stats_json(json.dumps(off), text, atoms, closure)),
               f"oracle accepts h_m off by 1/n for {text}")
        if len(d["spectrum"]) >= 2:
            spec = [list(x) for x in d["spectrum"]]
            spec[-1][1] -= 1
            spec[-2][1] += 1
            moved = dict(d, spectrum=spec)
            expect(bool(oracle.check_stats_json(json.dumps(moved), text, atoms, closure)),
                   f"oracle accepts a moved spectrum count for {text}")
    # the invariants alone catch a moved count: phi(12) = 4 does not divide 3
    d24 = {1: 1, 2: 13, 3: 2, 4: 2, 6: 2, 12: 4}
    expect(not oracle.spectrum_invariant_problems(d24, {2: 3, 3: 1}),
           "invariants reject the spectrum of D(24)")
    expect(bool(oracle.spectrum_invariant_problems({**d24, 12: 3, 6: 3}, {2: 3, 3: 1})),
           "invariants accept a spectrum with a count moved from order 12 to 6")

    # family-scan rows and the prop2.6 witness
    table = oracle.FamilyTable(200)
    catalog_h = oracle.catalog_h_m(closure)
    rows = pkg["verifier"].scan_integer_hm(entries, 60, 50).rows
    expect(not oracle.check_scan_rows(rows, 60, 50, table, closure, catalog_h),
           "oracle rejects true scan rows")
    bad = list(rows)
    k = next(i for i, r in enumerate(bad) if r.source == "dihedral-family")
    bad[k] = dataclasses.replace(bad[k], h_m=bad[k].h_m + Fraction(1, bad[k].order))
    expect(bool(oracle.check_scan_rows(bad, 60, 50, table, closure, catalog_h)),
           "oracle accepts a scan row with h_m off by 1/n")
    expect(bool(oracle.check_scan_rows(rows[:-1], 60, 50, table, closure, catalog_h)),
           "oracle accepts a scan with a row missing")
    p26 = pkg["verifier"].check_prop_2_6(200)
    expect(not oracle.check_prop26_result(p26, 200), "oracle rejects the true prop2.6")
    p26.witnesses.append(("D12", "h_m = 3/1"))
    expect(bool(oracle.check_prop26_result(p26, 200)),
           "oracle accepts prop2.6 with a second integer witness")

    # structure known answers
    lemma = pkg["verifier"].run_checks(entries, ["lemma2.1"])[0]
    expect(not oracle.check_check_result("lemma2.1", lemma), "oracle rejects lemma2.1")
    expect(bool(oracle.check_check_result("lemma2.1", dataclasses.replace(lemma, passed=True))),
           "oracle accepts a green lemma2.1")
    expect(bool(oracle.check_check_result(
        "lemma2.1", dataclasses.replace(lemma, witnesses=lemma.witnesses[1:]))),
        "oracle accepts lemma2.1 with a witness missing")
    eq9 = pkg["verifier"].run_checks(entries, ["eq9"])[0]
    expect(bool(oracle.check_check_result("eq9", dataclasses.replace(eq9, passed=False))),
           "oracle accepts a red eq9")
    runner = run.Runner("structure", pkg)
    for expect_iso in (True, False):
        op = workloads.Op("iso", text="C(6)", other="C(2) x C(3)", expect=expect_iso)
        expect(bool(runner.verify(op, not expect_iso, len(entries))),
               "oracle accepts a flipped isomorphism verdict")

    # CapExceeded is a refusal only on an op above the cap; anywhere else it
    # fails the op, and so does an answer to an op above the cap
    cap_exceeded = pkg["groupkernel"].CapExceeded

    def refuse(op, entries):
        raise cap_exceeded("refused")

    over = workloads.Op("stats", text="E(2,13)", atoms=(("E", 2, 13),), cls="over-cap")
    under = workloads.Op("stats", text="Dic(240)", atoms=(("Dic", 240),), cls="dic")
    check = workloads.Op("check", check_id="prop2.1-2.2", cls="prop2.1-2.2")

    def answer(op, entries):  # the right answer, as if the cap were lifted
        return json.dumps({**oracle.expected_report(op.text, op.atoms, closure),
                           "path": "brute"})

    cases = [(refuse, over, "refused"), (refuse, under, "failed"), (refuse, check, "failed"),
             (answer, over, "failed")]
    for execute, op, status in cases:
        runner = run.Runner("stats-stream", pkg)
        runner.execute = execute
        runner.run_op(op)
        expect(runner.records[-1]["status"] == status,
               f"{op.text or op.check_id} via {execute.__name__}: "
               f"{runner.records[-1]['status']}, not {status}")
    stream = workloads.stream("stats-stream", 7)
    for _ in range(6):
        for op in stream.block():
            expect((op.cls == "over-cap") == oracle.must_refuse(op.atoms),
                   f"{op.text} in class {op.cls}: must_refuse disagrees")

    # seeded, repeatable generation with no repeated input
    for w in workloads.WORKLOADS:
        a, b = workloads.stream(w, 7), workloads.stream(w, 7)
        keys = []
        for _ in range(14):
            if a.exhausted():
                break
            block_a, block_b = a.block(), b.block()
            expect(block_a == block_b, f"{w}: the same seed gave different inputs")
            keys += [op.key for op in block_a]
        expect(len(keys) == len(set(keys)), f"{w}: an input repeats within a run")
        expect(workloads.stream(w, 8).block() != workloads.stream(w, 7).block(),
               f"{w}: two seeds gave the same inputs")

    # the tracer records calls and restores every function it wrapped
    before = {name: getattr(pkg["exactmath"], name) for name in ("factorize", "euler_phi")}
    t = tracing.Tracer()
    t.install(pkg)
    try:  # through the module attributes, as run.py calls them
        pkg["statistics"].eval_expr(pkg["cli"].parse_expr("D(24) x C(2)"), entries)
    finally:
        t.uninstall()
    calls = t.call_counts()
    expect(calls.get("statistics.eval_expr") == 1 and calls.get("cli.parse_expr") == 1
           and calls.get("exactmath.factorize", 0) > 0
           and t.counts.get("groupkernel.perm_order.calls", 0) == 48,
           f"tracer counts for one brute-path eval: {dict(calls)}")
    expect(all(getattr(pkg["exactmath"], n) is f for n, f in before.items())
           and pkg["statistics"].factorize is before["factorize"],
           "tracer left a wrapper installed")

    # BENCHMARK.json names what run.py reports
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(),
           "BENCHMARK.json per_layer differs from run.per_layer_names()")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for f in failures:
        print(f"FAIL {f}")
    print(f"self-test: {passed} passed, {len(failures)} failed")
    return 1 if failures else 0
