"""Correctness gate: every report is checked by its meaning, outside the timed region.

Reports are parsed back from their JSON text and re-checked with code off
the decision path, so a report that lists fewer witnesses (say, one per
orbit) still passes as long as what it states is true:

* independent certificates are re-checked with ``wronskian.verify_certificate``;
* dependent relations must lie in the subfield and annihilate their vector;
* every solution is substituted exactly and rebuilt from its words;
* the word-bounded ``sg_search`` oracle must find nothing outside the
  certified solution set, and nothing at all for certified-empty;
* obstructions are re-checked with ``localprobe.verify_obstruction``, and a
  global solution found by the oracle rules an obstruction out;
* outcomes must be the ones the generator's construction guarantees, and
  exit codes other than 0 and 2 fail.
"""

import json

from workloads import equation_of

OK_CODES = {
    "certified-empty": 0,
    "certified-solutions": 0,
    "inapplicable": 2,
    "obstruction-found": 0,
    "none-found": 2,
}


class Gate:
    def __init__(self, ff):
        self.ff = ff

    def element(self, field, text):
        return self.ff.parse_element(text, field)

    # -- shared checks --

    def _dot(self, field, u, v):
        acc = self.ff.RatFunc.zero(field)
        for a, b in zip(u, v):
            acc = acc + a * b
        return acc

    def _cert(self, field, vector, m, cert, want=None):
        """Problems with one certificate for ``vector`` at precision m."""
        if cert is None:
            return [] if want is None else [f"missing {want} certificate"]
        verdict = cert.get("verdict")
        if want is not None and verdict != want:
            return [f"certificate is {verdict}, expected {want}"]
        ff = self.ff
        problems = []
        if verdict == "independent":
            ic = ff.IndependenceCertificate(True, tuple(cert["index_set"]), None)
            if not ff.wronskian.verify_certificate(vector, m, ic):
                problems.append(f"index set {cert['index_set']} does not certify independence")
        elif verdict == "dependent":
            rel = tuple(self.element(field, t) for t in cert["relation"])
            if len(rel) != len(vector) or all(r.is_zero for r in rel):
                problems.append("relation is empty or has the wrong length")
            elif not all(ff.in_power_subfield(r, m) for r in rel):
                problems.append("relation leaves the subfield")
            elif not self._dot(field, rel, vector).is_zero:
                problems.append("relation does not annihilate its vector")
        else:
            problems.append(f"unknown verdict {verdict!r}")
        return problems

    def _tuple(self, field, group, eq, entry):
        """b*r for a witness or failure entry, after rebuilding r from its words."""
        out = []
        for bj, text, word in zip(eq.b, entry["r"], entry["r_words"]):
            x = self.element(field, text)
            if group.word_product(tuple(word)) != x:
                raise AssertionError(f"r entry {text} is not rebuilt by its word {word}")
            out.append(bj * x)
        return tuple(out)

    def _psi_certs(self, field, br, m, certs, want=None):
        problems = []
        for j, c in enumerate(certs, 1):
            problems += self._cert(field, self.ff.psi(j, br), m, c, want)
        return problems

    def _failure(self, field, group, eq, m, failure):
        if failure is None:
            return ["inapplicable report without a failing tuple"]
        br = self._tuple(field, group, eq, failure)
        if eq.rhs == 0:
            return self._cert(field, br, m, failure["certificate"], "dependent")
        return self._psi_certs(field, br, m, failure["unit_substitutions"], "dependent")

    # -- per-command checks --

    def check(self, inst, code, text, oracle_found=None):
        """Problems with one request's result; an empty list means it passed."""
        want = 0 if inst.command == "sg_search" else OK_CODES[inst.outcome]
        if code != want:
            return [f"exit code {code}, expected {want} for {inst.outcome}"]
        try:
            if inst.command == "solve":
                return self._solve(inst, json.loads(text))
            if inst.command == "skolem":
                return self._skolem(inst, json.loads(text), oracle_found)
            return self._sg(inst, json.loads(text))
        except (AssertionError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return [f"malformed or wrong report: {exc!r}"]

    def _solve(self, inst, doc):
        field, group, eq = equation_of(self.ff, inst)
        problems = []
        if doc["outcome"] != inst.outcome:
            return [f"outcome {doc['outcome']}, construction guarantees {inst.outcome}"]
        if doc["field"] != {"p": inst.p, "s": inst.s} or doc["equation"]["rhs"] != inst.rhs:
            return ["report names another field or rhs"]
        if tuple(self.element(field, t) for t in doc["equation"]["b"]) != eq.b:
            return ["report names another coefficient vector"]
        m = doc["m"]
        solutions = set()
        for s in doc["solutions"] or ():
            point = tuple(self.element(field, t) for t in s["coords"])
            if self._dot(field, eq.b, point) != self.ff.RatFunc.one(field):
                problems.append(f"solution {s['coords']} does not satisfy b . x = 1")
            if tuple(group.word_product(tuple(w)) for w in s["words"]) != point:
                problems.append(f"solution {s['coords']} is not rebuilt by its words")
            solutions.add(point)
        for w in doc["witnesses"]:
            br = self._tuple(field, group, eq, w)
            cert = w["certificate"]
            want = "independent" if doc["outcome"] == "certified-empty" else None
            problems += self._cert(field, br, m, cert["products"], want)
            if cert["unit_substitutions"] is not None:
                problems += self._psi_certs(field, br, m, cert["unit_substitutions"])
                if doc["outcome"] == "certified-solutions" and not any(
                    c["verdict"] == "independent" for c in cert["unit_substitutions"]
                ):
                    problems.append("certified tuple without an independent unit substitution")
            if w.get("kept"):
                point = tuple(self.element(field, t) for t in w["point"])
                if point not in solutions:
                    problems.append(f"kept point {w['point']} is missing from the solutions")
        if doc["outcome"] == "inapplicable":
            problems += self._failure(field, group, eq, m, doc["failure"])
        elif doc["failure"] is not None:
            problems.append("certified report carries a failure")
        for entry in doc["auto_failures"]:
            problems += self._failure(field, group, eq, entry["m"], entry["failure"])
        if doc["outcome"] == "certified-solutions":
            if doc["bound"] is None or len(solutions) > doc["bound"]:
                problems.append("more solutions than the eligible-tuple bound")
            if inst.planted is not None:
                planted = tuple(self.element(field, t) for t in inst.planted)
                if planted not in solutions:
                    problems.append("the planted solution is missing")
        if doc["outcome"] != "inapplicable":
            for s in self.ff.sg_search(eq, group, inst.word_bound):
                if s.coords not in solutions:
                    problems.append(f"oracle solution {s.coords!r} is not certified")
        return problems

    def _skolem(self, inst, doc, oracle_found):
        ff = self.ff
        field, group, eq = equation_of(self.ff, inst)
        if doc["outcome"] != inst.outcome:
            return [f"outcome {doc['outcome']}, construction guarantees {inst.outcome}"]
        if oracle_found is None:
            return ["no oracle result to cross-check the local search"]
        if doc["outcome"] == "none-found":
            return []
        if oracle_found:
            return ["obstruction reported although the oracle found a global solution"]
        base = self.element(field, doc["modulus"]["base"])
        modulus = ff.Modulus(base.num.monic()[0], doc["modulus"]["exponent"])
        witness = ff.ObstructionWitness(modulus, doc["group_size"])
        problems = []
        if not ff.localprobe.verify_obstruction(witness, eq, group):
            problems.append(f"modulus {doc['modulus']} does not obstruct")
        if len(ff.residue_group(group, modulus)) != doc["group_size"]:
            problems.append("group_size is not the residue group's size")
        return problems

    def _sg(self, inst, doc):
        field, group, eq = equation_of(self.ff, inst)
        problems = []
        target = self.ff.RatFunc.constant(field, inst.rhs)
        points = set()
        for s in doc["solutions"]:
            point = tuple(self.element(field, t) for t in s["coords"])
            if self._dot(field, eq.b, point) != target:
                problems.append(f"oracle point {s['coords']} does not satisfy the equation")
            if any(abs(e) > inst.word_bound for w in s["words"] for e in w):
                problems.append(f"oracle point {s['coords']} lies outside the word box")
            if tuple(group.word_product(tuple(w)) for w in s["words"]) != point:
                problems.append(f"oracle point {s['coords']} is not rebuilt by its words")
            points.add(point)
        if inst.planted is not None:
            planted = tuple(self.element(field, t) for t in inst.planted)
            if planted not in points:
                problems.append("the planted global solution is missing")
        return problems

