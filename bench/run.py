"""ffunits benchmark: seeded workloads replayed through the public entry points.

    python3 bench/run.py --workload certify-rhs0 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

One client sends requests in a closed loop from this single process, with
no threads: ``ffunits.cli.run_cli`` for solve and skolem requests and
``ffunits.sg_search`` for oracle requests.  A pass replays the workload's
instances once, starting from an empty derivative-jet memo, so passes do the
same work and the memo carries across the requests of a pass as it does for
a library user.

``--trace 0`` starts passes until ``--seconds`` have gone by and reports the
end-to-end metrics, each request's time taken as its median over the
passes and scaled by a reference loop timed next to it (``reference_loop``).
``--trace 1`` runs two untraced passes and one traced pass (spans patched in
from outside, see ``spans.py``) and reports the per-layer metrics.  Either way a correctness gate re-checks the reports outside the
timed region, the result file and the trace go to ``bench/results/``, and
the last line of stdout is one JSON object.
"""

import argparse
import gc
import hashlib
import importlib
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
import traceback
from io import StringIO
from pathlib import Path

import gate
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

SETUP_REPEATS = 15
REF_MS = 1.0  # every time is given as if the reference loop took exactly this
TAIL_PERCENTILES = (99.9, 99, 98, 95, 90, 80, 75, 50)
MIN_BEYOND = 10  # samples the tail percentile must leave above it
MICRO_REPEATS = 7

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# failed_frac is 0 whenever the gate passes, so it is printed and recorded
# but left out of the bounded metrics; failures also go to "failed".
REPORTED_ONLY = {"failed_frac": "ratio"}

MICRO = {
    f"{op}.{q}": unit
    for q in ("q3", "q9")
    for op, unit in (("field.mul_ns", "ns"), ("poly.mul_us", "us"),
                     ("poly.divmod_us", "us"), ("poly.gcd_us", "us"))
}


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric with its unit, in the order they are printed."""
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        out[f"{name}.errors"] = "count"
    for name in spans.COUNT_TARGETS:
        out[f"{name}.calls"] = "count"
    out.update({
        "hasse.jet_cache.hit_ratio": "ratio",
        "solver.tuple_space": "count",
        "solver.tuples_tested": "count",
        "solver.tested_ratio": "ratio",
        "solver.candidate_keep_ratio": "ratio",
        "wronskian.witness_rows_ratio": "ratio",
        "localprobe.moduli_tried": "count",
        "localprobe.residue_elements": "count",
        "trace.overhead_ratio": "ratio",
    })
    out.update(MICRO)
    return out


# -- environment and set-up --


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
    }


def _purge_ffunits():
    for name in [n for n in sys.modules if n == "ffunits" or n.startswith("ffunits.")]:
        del sys.modules[name]


def reference_loop() -> int:
    """Fixed pure-Python work of the kind ffunits does: products of
    polynomials over GF(7) held as lists, then a breadth-first search over
    tuples kept in a set.

    Other tenants of a shared host slow this loop and the requests alike, by
    up to about 2.4x for stretches of seconds to minutes.  Each time is
    therefore divided by the loop's time measured next to it and given at
    the speed where the loop takes REF_MS (see the README).
    """
    p = 7
    a = [(i * 5 + 1) % p for i in range(24)]
    acc = 0
    for _ in range(12):
        out = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(a):
                    out[i + j] = (out[i + j] + x * y) % p
        a = out[:len(a)]
        acc += sum(out)
    seen = {(1, 0)}
    frontier = [(1, 0)]
    while frontier and len(seen) < 1200:
        nxt = []
        for u, v in frontier:
            for w in ((u * 3 + v) % 1009, (u + 5 * v + 1) % 1009):
                key = (w, u % 17)
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt
    return acc + len(seen)


def reference_ns() -> int:
    start = time.perf_counter_ns()
    reference_loop()
    return time.perf_counter_ns() - start


def setup(workload: str, seed: int):
    """Import ffunits and build the requests; repeated, the median is setup_s.

    Returns (ffunits, requests, scaled set-up seconds, raw set-up seconds).
    """
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        _purge_ffunits()
        before = reference_ns()
        start = time.perf_counter()
        ff = importlib.import_module("ffunits")
        importlib.import_module("ffunits.cli")
        insts = workloads.generate(workload, seed, ROOT)
        requests = []
        for inst in insts:
            if inst.command == "sg_search":
                _, group, eq = workloads.equation_of(ff, inst)
                requests.append((inst, (eq, group)))
            else:
                requests.append((inst, inst.argv()))
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * REF_MS * 1e6 / min(before, reference_ns()))
    return ff, requests, statistics.median(times), statistics.median(raw)


# -- requests and passes --


def _send(ff, inst, payload):
    if inst.command == "sg_search":
        eq, group = payload
        return 0, ff.localprobe.sg_search(eq, group, inst.word_bound)
    out = StringIO()
    code = ff.cli.run_cli(payload, stdout=out, stderr=StringIO())
    return code, out.getvalue()


def run_pass(ff, requests, rec=None):
    """One replay of the workload.

    Returns per-request ns, the reference loop's ns next to each request
    (the lesser of the runs just before and just after it), exit codes and
    raw results.
    """
    gc.collect()
    ff.hasse._jet_coeffs.cache_clear()
    durations, codes, raws = [], [], []
    refs = [reference_ns()]
    for i, (inst, payload) in enumerate(requests):
        if rec is not None:
            rec.request_id = i
        start = time.perf_counter_ns()
        try:
            code, raw = _send(ff, inst, payload)
        except Exception:  # the gate counts it as a failed request
            code, raw = None, traceback.format_exc()
        durations.append(time.perf_counter_ns() - start)
        codes.append(code)
        raws.append(raw)
        refs.append(reference_ns())
    if rec is not None:
        rec.request_id = -1
    scales = [min(a, b) for a, b in zip(refs, refs[1:])]
    return durations, scales, codes, raws


def scaled_busy(durations, scales) -> float:
    """A pass's busy time in reference loops."""
    return sum(d / r for d, r in zip(durations, scales))


def report_texts(ff, requests, codes, raws) -> list[str]:
    """Report JSON per request; sg_search results are serialised like CLI reports."""
    out = []
    for (inst, _), code, raw in zip(requests, codes, raws):
        if inst.command == "sg_search" and code is not None:
            raw = json.dumps({
                "command": "sg_search",
                "solutions": [
                    {"coords": [ff.print_expr(x) for x in s.coords], "words": [list(w) for w in s.words]}
                    for s in raw
                ],
            }, indent=2)
        out.append(raw)
    return out


def digests(codes, texts) -> list[str]:
    return [hashlib.sha256(f"{c}\n{t}".encode()).hexdigest() for c, t in zip(codes, texts)]


def output_digest(request_digests) -> str:
    return hashlib.sha256("".join(request_digests).encode()).hexdigest()


def run_gate(ff, requests, codes, texts) -> list[list[str]]:
    """Problems per request (empty when it passed)."""
    checker = gate.Gate(ff)
    oracle_found = {}
    for (inst, _), code, text in zip(requests, codes, texts):
        if inst.command == "sg_search" and code == 0:
            oracle_found[inst.key[1:]] = bool(json.loads(text)["solutions"])
    out = []
    for (inst, _), code, text in zip(requests, codes, texts):
        if code is None:
            out.append([f"exception: {text.strip().splitlines()[-1]}"])
            continue
        try:
            out.append(checker.check(inst, code, text, oracle_found.get(inst.key[1:])))
        except Exception:  # a crash in the gate fails the request, not the run
            out.append([f"gate error: {traceback.format_exc().strip().splitlines()[-1]}"])
    return out


# -- metrics --


def tail_percentile(n: int) -> float:
    """Highest percentile that leaves at least MIN_BEYOND of n samples above it."""
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100 * n) >= MIN_BEYOND:
            return pct
    return 50.0


def nearest_rank(sorted_values, pct: float):
    return sorted_values[max(math.ceil(pct / 100 * len(sorted_values)) - 1, 0)]


def request_ms(passes) -> tuple[list[float], list[float]]:
    """Each request's median time over the passes: (scaled ms, raw ms).

    ``passes`` holds (request ns, reference ns) per pass; a scaled time is
    the request's time in reference loops, times REF_MS.
    """
    scaled, raw = [], []
    for pairs in zip(*(zip(d, r) for d, r in passes)):
        scaled.append(statistics.median(d / r for d, r in pairs) * REF_MS)
        raw.append(statistics.median(d for d, _ in pairs) / 1e6)
    return scaled, raw


def end_to_end(latency, failed, attempted, setup_s, rss_mb):
    n = len(latency)
    latency_ms = sorted(latency)
    pct = tail_percentile(n)
    metrics = {
        "requests_per_s": n / (sum(latency_ms) / 1e3),
        "latency_ms_p50": statistics.median(latency_ms),
        "latency_ms_tail": nearest_rank(latency_ms, pct),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "failed_frac": failed / attempted,
    }
    tail = {"percentile": pct, "samples": n, "samples_beyond": n - math.ceil(pct / 100 * n)}
    return metrics, tail


def report_ratios(requests, codes, texts) -> dict[str, float]:
    space = tested = candidates = kept = certified_m = rows_tried = 0
    for (inst, _), code, text in zip(requests, codes, texts):
        if inst.command != "solve" or code is None:
            continue
        doc = json.loads(text)
        arity = len(doc["equation"]["b"])
        space += doc["repset_size"] ** arity
        tested += len(doc["witnesses"])
        for w in doc["witnesses"]:
            if "candidate" in w:
                candidates += 1
                kept += bool(w["kept"])
            cert = w["certificate"]
            for c in [cert["products"]] + list(cert["unit_substitutions"] or ()):
                if c is not None and c["verdict"] == "independent":
                    certified_m += len(c["index_set"])
                    rows_tried += c["index_set"][-1] + 1
    return {
        "solver.tuple_space": space,
        "solver.tuples_tested": tested,
        "solver.tested_ratio": tested / space if space else 0.0,
        "solver.candidate_keep_ratio": kept / candidates if candidates else 0.0,
        "wronskian.witness_rows_ratio": certified_m / rows_tried if rows_tried else 0.0,
    }


def _per_op(fn, operands, unit_ns: float) -> float:
    """Median over repeats of the time per call of fn over the operand list."""
    best = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter_ns()
        for args in operands:
            fn(*args)
        best.append((time.perf_counter_ns() - start) / len(operands))
    return statistics.median(best) / unit_ns


def micro(ff, requests, seed: int) -> dict[str, float]:
    """Primitive timings on operands sampled from the workload's own elements."""
    rng = random.Random(seed)
    out = {}
    for tag, (p, s) in (("q3", (3, 1)), ("q9", (3, 2))):
        polys = set()
        for inst, _ in requests:
            if (inst.p, inst.s) == (p, s):
                _, group, eq = workloads.equation_of(ff, inst)
                for x in eq.b + group.generators:
                    polys.update(q for q in (x.num, x.den) if q.degree() >= 1)
        polys = sorted(polys, key=lambda q: q.sort_key())
        field = polys[0].field
        coeffs = [c for q in polys for c in q.coeffs if c]
        triples = [(rng.choice(polys), rng.choice(polys), rng.choice(polys)) for _ in range(64)]
        out[f"field.mul_ns.{tag}"] = _per_op(
            field.mul, [(rng.choice(coeffs), rng.choice(coeffs)) for _ in range(2000)], 1)
        out[f"poly.mul_us.{tag}"] = _per_op(lambda a, b: a * b, [(a, b) for a, b, _ in triples], 1e3)
        out[f"poly.divmod_us.{tag}"] = _per_op(
            ff.poly_divmod, [(a * b + c, b) for a, b, c in triples], 1e3)
        out[f"poly.gcd_us.{tag}"] = _per_op(ff.poly_gcd, [(a * c, b * c) for a, b, c in triples], 1e3)
    return out


def layer_values(ff, rec, requests, codes, texts, overhead, seed):
    summary = rec.summary()
    values = {}
    for name in spans.SPAN_NAMES:
        row = summary.get(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
        values[f"{name}.errors"] = row["errors"]
    for name, count in rec.counts.items():
        values[f"{name}.calls"] = count
    info = ff.hasse._jet_coeffs.cache_info()
    lookups = info.hits + info.misses
    values["hasse.jet_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
    values.update(report_ratios(requests, codes, texts))
    scans = values["localprobe.find_local_obstruction.calls"]
    values["localprobe.moduli_tried"] = values["localprobe.sl_search.calls"] / scans if scans else 0.0
    values["localprobe.residue_elements"] = rec.result_sizes.get("localprobe.residue_group", 0)
    values["trace.overhead_ratio"] = overhead
    values.update(micro(ff, requests, seed))
    return values


def self_time_mismatches(rec) -> list[int]:
    """Requests whose span self times do not add up to their root span."""
    own = rec.self_times()
    root_ns, self_ns = {}, {}
    for i in range(len(rec)):
        req = rec.request[i]
        self_ns[req] = self_ns.get(req, 0) + own[i]
        if rec.parent[i] < 0:
            root_ns[req] = root_ns.get(req, 0) + rec.end[i] - rec.start[i]
    return sorted(r for r in self_ns if r < 0 or self_ns[r] != root_ns.get(r))


# -- one workload --


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()
    ff, requests, setup_s, raw_setup_s = setup(workload, seed)
    n = len(requests)
    start = time.perf_counter()
    durations, scales, codes, raws = run_pass(ff, requests)
    texts = report_texts(ff, requests, codes, raws)
    first = digests(codes, texts)
    passes = [(durations, scales)]
    mismatched = [0] * n  # later passes whose report differs from the first
    rec = None

    def compare(p_codes, p_raws):
        for i, d in enumerate(digests(p_codes, report_texts(ff, requests, p_codes, p_raws))):
            mismatched[i] += d != first[i]

    def replay():
        p_durations, p_scales, p_codes, p_raws = run_pass(ff, requests)
        compare(p_codes, p_raws)
        return p_durations, p_scales

    if trace:
        # a second untraced pass, warm like the traced one, is the overhead's base
        passes.append(replay())
        # memory is read before the span arrays of the traced pass exist
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rec = spans.SpanRecorder()
        patch = spans.Patch()
        patch.install(rec)
        try:
            t_durations, t_scales, t_codes, t_raws = run_pass(ff, requests, rec)
        finally:
            patch.restore()
        # reports are serialised after the restore, so print_expr records no spans
        compare(t_codes, t_raws)
        overhead = scaled_busy(t_durations, t_scales) / scaled_busy(*passes[-1])
    else:
        deadline = start + seconds
        while time.perf_counter() < deadline:
            passes.append(replay())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gate_start = time.perf_counter()
    problems = run_gate(ff, requests, codes, texts)
    gate_s = time.perf_counter() - gate_start
    runs = len(passes) + (1 if trace else 0)
    # a request the gate fails is failed in every pass; otherwise in each
    # later pass whose report differs from the first one
    failed = sum(runs if p else mismatched[i] for i, p in enumerate(problems))
    attempted = n * runs
    latency, raw_latency = request_ms(passes)
    e2e, tail = end_to_end(latency, failed, attempted, setup_s, rss_mb)
    raw_e2e, _ = end_to_end(raw_latency, failed, attempted, raw_setup_s, rss_mb)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": dict(environment(), loadavg_start=load_start, loadavg_end=None),
        "attempted": attempted,
        "failed": failed,
        "output_digest": output_digest(first),
        "gate_s": gate_s,
        "end_to_end": {k: {"value": v, "unit": {**END_TO_END, **REPORTED_ONLY}[k]} for k, v in e2e.items()},
        "tail": tail,
        "passes": len(passes),
        # unscaled figures, and the reference loop's median time in this run
        "raw": {k: raw_e2e[k] for k in ("requests_per_s", "latency_ms_p50", "latency_ms_tail", "setup_s")},
        "reference_ms": statistics.median(r for _, rs in passes for r in rs) / 1e6,
        "requests": [
            dict(inst.record(), exit_code=codes[i], latency_ms=latency[i],
                 raw_latency_ms=raw_latency[i], digest=first[i], problems=problems[i])
            for i, (inst, _) in enumerate(requests)
        ],
    }
    correct = failed == 0
    if trace:
        broken = self_time_mismatches(rec)
        correct = correct and not broken
        result["self_time_mismatches"] = broken
        result["spans"] = len(rec)
        units = layer_metrics()
        result["per_layer"] = {
            k: {"value": v, "unit": units[k]}
            for k, v in layer_values(ff, rec, requests, codes, texts, overhead, seed).items()
        }
        RESULTS.mkdir(exist_ok=True)
        trace_path = RESULTS / f"{workload}-seed{seed}.trace.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(rec.to_json([inst.name for inst, _ in requests]), handle)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    result["correct"] = correct
    result["environment"]["loadavg_end"] = os.getloadavg()
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


def print_table(result):
    tail = result["tail"]
    print(f"== {result['workload']} seed {result['seed']}: {result['attempted']} requests, "
          f"{result['failed']} failed, output_digest {result['output_digest'][:16]}")
    for name, m in result["end_to_end"].items():
        note = ""
        if name == "latency_ms_tail":
            note = (f"  (p{tail['percentile']:g}, {tail['samples_beyond']} of "
                    f"{tail['samples']} samples beyond)")
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{note}")
    for name, m in result.get("per_layer", {}).items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for req in result["requests"]:
        if req["problems"]:
            print(f"  FAILED {req['name']}: {'; '.join(req['problems'][:3])}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ffunits" / "__init__.py").is_file():
        print(f"error: the ffunits sources are missing under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(result)
    key = "per_layer" if args.trace else "end_to_end"
    units = layer_metrics() if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: result[key][k] for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a child process of its own, so peak memory is its own."""
    lines = []
    for w in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        out = child.stdout.splitlines()
        if child.returncode != 0 or not out:
            print(f"error: workload {w} exited with code {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(out[:-1]))
        lines.append((w, json.loads(out[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in lines),
        "attempted": sum(r["attempted"] for _, r in lines),
        "failed": sum(r["failed"] for _, r in lines),
        "metrics": {f"{w}/{k}": m for w, r in lines for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
