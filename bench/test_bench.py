"""Tests for the benchmark's instance generator, span recorder and gate.

    python3 -m pytest bench/test_bench.py -q
"""

import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import ffunits  # noqa: E402
import ffunits.cli  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def generated(request):
    return request.param, workloads.generate(request.param, 7, ROOT)


def _cli(argv):
    """One CLI request, looked up at call time so that patched wrappers apply."""
    out = io.StringIO()
    code = ffunits.cli.run_cli(argv, stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


def test_same_seed_same_list_other_seed_other_list(generated):
    name, insts = generated
    assert workloads.generate(name, 7, ROOT) == insts
    assert workloads.generate(name, 8, ROOT) != insts


def test_instances_are_distinct_and_parse(generated):
    _, insts = generated
    assert len({inst.key for inst in insts}) == len(insts)
    parser = ffunits.cli.build_parser()
    for inst in insts:
        field, group, eq = workloads.equation_of(ffunits, inst)
        assert (field.p, field.s) == (inst.p, inst.s)
        assert len(group.generators) == len(inst.gens) and eq.arity == inst.M
        if inst.command != "sg_search":
            parser.parse_args(inst.argv())


def test_instances_record_their_size_and_outcome(generated):
    _, insts = generated
    for inst in insts:
        rec = inst.record()
        assert {"p", "s", "M", "tuple_space", "m", "m_max", "outcome"} <= rec.keys()
        assert rec["outcome"] in gate.OK_CODES
        if inst.command != "solve" or inst.path is not None or inst.tuple_space > 300:
            continue
        _, group, _ = workloads.equation_of(ffunits, inst)
        precisions = [inst.m] if inst.m is not None else range(1, inst.m_max + 1)
        sizes = {len(ffunits.representatives(group, m)) ** inst.M for m in precisions}
        assert inst.tuple_space in sizes


def test_shipped_instances_are_recorded_exactly():
    gap = next(i for i in workloads.generate("certify-rhs0", 1, ROOT) if i.path is not None)
    _, group, _ = workloads.equation_of(ffunits, gap)
    assert len(ffunits.representatives(group, gap.m_max)) ** gap.M == gap.tuple_space
    assert (gap.p, gap.m_max, gap.outcome) == (3, 3, "inapplicable")


def test_small_instances_end_as_constructed(generated):
    name, insts = generated
    checker = gate.Gate(ffunits)
    small = [i for i in insts if i.command == "solve" and (i.tuple_space or 0) <= 16][:6]
    if name == "local-global":
        small = [i for i in insts if i.command == "skolem"][:4]
    assert small
    for inst in small:
        code, text = _cli(inst.argv())
        assert json.loads(text)["outcome"] == inst.outcome
        assert checker.check(inst, code, text, oracle_found=False) == []


def test_gate_rejects_wrong_reports():
    inst = next(i for i in workloads.generate("certify-rhs0", 3, ROOT)
                if i.outcome == "certified-empty" and i.tuple_space == 4)
    code, text = _cli(inst.argv())
    checker = gate.Gate(ffunits)
    assert checker.check(inst, code, text) == []
    assert checker.check(inst, 3, text) != []
    doc = json.loads(text)
    doc["witnesses"][0]["certificate"]["products"] = {"verdict": "dependent", "relation": ["1", "1"]}
    assert checker.check(inst, code, json.dumps(doc)) != []
    doc = json.loads(text)
    doc["outcome"] = "inapplicable"
    assert checker.check(inst, code, json.dumps(doc)) != []


def test_self_time_on_synthetic_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds c [15, 25]) and d [50, 60];
    # e [90, 120] overlaps the root's end and f [30, 55] overlaps a and d.
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 60]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [60, 20, 10, 10]
    assert sum(spans.self_times(starts, ends, parents)) == ends[0] - starts[0]
    starts += [90, 30]
    ends += [120, 55]
    parents += [0, 0]
    # the root's children now cover [10, 60] and [90, 100]: 60 ns of 100
    assert spans.self_times(starts, ends, parents)[0] == 40


def test_recorder_wraps_every_binding_and_restores_it():
    originals = {
        ("solver", "independence_test"): ffunits.wronskian.independence_test,
        ("cli", "parse_element"): ffunits.exprio.parse_element,
        ("wronskian", "hasse_derivative"): ffunits.hasse.hasse_derivative,
    }
    mul, make = ffunits.GF.__dict__["mul"], ffunits.RatFunc.__dict__["make"]
    rec = spans.SpanRecorder()
    patch = spans.Patch()
    patch.install(rec)
    try:
        for (mod, attr), orig in originals.items():
            assert getattr(sys.modules[f"ffunits.{mod}"], attr).__wrapped__ is orig
        rec.request_id = 0
        code, _ = _cli(["solve", "--p", "2", "--gens", "1 + T", "--b", "T, 1", "--rhs", "1", "--m", "1"])
        rec.request_id = -1
    finally:
        patch.restore()
    assert code == 0
    for (mod, attr), orig in originals.items():
        assert getattr(sys.modules[f"ffunits.{mod}"], attr) is orig
    assert ffunits.GF.__dict__["mul"] is mul and ffunits.RatFunc.__dict__["make"] is make
    summary = rec.summary()
    assert summary["cli.run_cli"]["calls"] == 1
    assert summary["wronskian.independence_test"]["calls"] > 0
    assert rec.counts["field.mul"] > 0 and rec.counts["ratfunc.make"] > 0
    assert run.self_time_mismatches(rec) == []


def test_request_times_are_scaled_medians_over_passes():
    # (request ns, reference ns) per pass, two requests, three passes
    passes = [([10, 40], [2, 4]), ([30, 20], [3, 4]), ([8, 60], [1, 4])]
    scaled, raw = run.request_ms(passes)
    assert scaled == [8 * run.REF_MS, 10 * run.REF_MS]
    assert raw == [10 / 1e6, 40 / 1e6]


def test_tail_percentile_leaves_ten_samples():
    assert run.tail_percentile(57) == 80
    assert run.tail_percentile(104) == 90
    assert run.tail_percentile(1000) == 99


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metrics()
