"""Rule engine: aggregate every applicable test into one transience report.

Evidence is collected in three bands with fixed precedence: closed-form
rules on a family's exact indices (two-sided where its sup and inf indices
agree), the frequency-side and measure-side integral tests (co-equal), and
the one-sided index rules. A rule of every band is a (side, rule_id,
statement, detail) record of a rule that fired, and every test reads the
dimension from the model. Within the winning band, weak-side and
strong-side evidence must not conflict; a conflict is reported as
Inconclusive with full trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cf_integrals import strong_integral_kappa, weak_integral_kappa
from .errors import (
    ConfigurationError,
    LevyTransienceError,
    NotApplicableError,
    QuadratureError,
    check_kappa,
    check_positive,
)
from .index_rules import index_bound_rules, index_exact_rules, moment_rules
from .index_rules import shape_diagnostic
from .levy_tails import (
    cos_moment_condition,
    moment_tail_test,
    quadratic_growth_floor,
    tail_test_strong,
    tail_test_weak,
)
from .symbols import FAMILIES, SymbolModel, sector_check, symmetry_check
from .symbols import GATE_RECURRENT, GATE_TRANSIENT, GATE_UNKNOWN
from .verdicts import CONVERGES, DIVERGES, model_memo

WEAKLY_TRANSIENT = "weakly_transient"
STRONGLY_TRANSIENT = "strongly_transient"
INCONCLUSIVE = "inconclusive"

ALL_METHODS = ("closed_form", "integral", "tail", "index")

_PRECEDENCE = {"closed_form": 3, "integral": 2, "tail": 2, "index": 1}


class NotTransientError(LevyTransienceError):
    """classify() was called on a process the gate declares recurrent."""


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


@dataclass(frozen=True)
class RuleRecord:
    rule_id: str
    statement: str
    verdict: str          # "weak" | "strong" | "info"
    method: str
    detail: dict = field(default_factory=dict)

    def to_json(self):
        return {"id": self.rule_id, "quote_ref": self.statement,
                "verdict": self.verdict, "method": self.method,
                "detail": _jsonable(self.detail)}


@dataclass(frozen=True)
class TransienceReport:
    gate: str
    kappa: float
    verdict: str
    fired_rules: tuple
    assumptions: dict
    kappa_star: float | None = None
    conditional: tuple = ()
    notes: tuple = ()

    def to_json(self):
        return {
            "gate": self.gate,
            "kappa": self.kappa,
            "verdict": self.verdict,
            "kappa_star": self.kappa_star,
            "rules": [r.to_json() for r in self.fired_rules],
            "assumptions": _jsonable(self.assumptions),
            "conditional": list(self.conditional),
            "notes": list(self.notes),
        }


def _default_assumptions(model):
    a = dict(model.assumptions)
    a.setdefault("weak_test_hypothesis", False)
    a.setdefault("sector_constant", None)
    a.setdefault("perturbation_margin", False)
    a.setdefault("irreducible", FAMILIES[model.family].irreducible)
    return a


# ---------------------------------------------------------------------------
# Transience gate.
# ---------------------------------------------------------------------------

@model_memo
def transience_gate(model: SymbolModel, r=1.0, use_structural=True) -> str:
    """Transient / Recurrent / Unknown from structural family facts plus the
    constant-weight integral tests."""
    if use_structural:
        s = FAMILIES[model.family].gate(model)
        if s is not None:
            return s
    strong = strong_integral_kappa(model, 0.0, r)
    if strong.decided_state == CONVERGES:
        return GATE_TRANSIENT
    weak = weak_integral_kappa(model, 0.0, r)
    assumptions = _default_assumptions(model)
    if weak.decided_state == DIVERGES and symmetry_check(model) \
            and assumptions["irreducible"]:
        return GATE_RECURRENT
    return GATE_UNKNOWN


# ---------------------------------------------------------------------------
# classify and the boundary search.
# ---------------------------------------------------------------------------

def classify(model: SymbolModel, kappa: float, d=None, r=1.0,
             methods=ALL_METHODS) -> TransienceReport:
    """Full per-kappa classification with rule provenance."""
    if d is not None and d != model.d:
        raise ConfigurationError(f"model dimension {model.d} != requested {d}")
    gate = _checked_gate(model, kappa, r, methods, None)
    assumptions = _default_assumptions(model)
    records, evidence, notes = _evidence(model, kappa, r, methods,
                                         assumptions)
    verdict, conditional = _aggregate(model, evidence, assumptions, notes)
    return TransienceReport(
        gate=gate, kappa=kappa, verdict=verdict,
        fired_rules=tuple(records), assumptions=assumptions,
        conditional=tuple(conditional), notes=tuple(notes))


def classify_verdict(model: SymbolModel, kappa: float, r, methods, gate):
    """The verdict classify reports; the bands below the highest precedence
    level with evidence are never computed."""
    _checked_gate(model, kappa, r, methods, gate)
    assumptions = _default_assumptions(model)
    for level in (3, 2, 1):
        band = [m for m in methods if _PRECEDENCE[m] == level]
        evidence = _evidence(model, kappa, r, band, assumptions)[1]
        if evidence:
            return _decide(evidence)
    return INCONCLUSIVE


def _check_methods(methods):
    if not set(methods) <= set(ALL_METHODS):
        raise ConfigurationError(
            f"methods must be names from {ALL_METHODS}, got {methods!r}")


def _checked_gate(model, kappa, r, methods, gate):
    check_kappa(kappa)
    check_positive("radius", r)
    _check_methods(methods)
    if gate is None:
        gate = transience_gate(model, r)
    if gate == GATE_RECURRENT:
        raise NotTransientError(
            "process is not transient; weak/strong transience is undefined")
    return gate


def _evidence(model, kappa, r, methods, assumptions):
    """Run the method bands: (rule records, method band -> sides, notes)."""
    records: list[RuleRecord] = []
    evidence = {}   # method band -> set of sides
    notes = []

    def fire(method, side, rule_id, statement, detail):
        records.append(RuleRecord(rule_id=rule_id, statement=statement,
                                  verdict=side, method=method, detail=detail))
        if side != "info":
            evidence.setdefault(method, set()).add(side)

    if "closed_form" in methods:
        for rule in index_exact_rules(model, kappa):
            fire("closed_form", *rule)

    if "integral" in methods:
        try:
            weak_v = weak_integral_kappa(model, kappa, r)
            if weak_v.decided_state == DIVERGES:
                fire("integral", "weak", "cf-weak-integral",
                     "small-frequency integral of (sup|q|)^{-(kappa+1)} "
                     "diverges", weak_v.to_json())
            strong_v = strong_integral_kappa(model, kappa, r)
            if strong_v.decided_state == CONVERGES:
                sector_ok = _sector_constant(model, assumptions)
                fire("integral", "strong", "cf-strong-integral",
                     "small-frequency integral of (inf Re q)^{-(kappa+1)} "
                     "converges",
                     dict(strong_v.to_json(), sector_constant=sector_ok))
                if sector_ok is None:
                    notes.append("strong-side evidence lacks a verified "
                                 "sector constant; conditional")
        except QuadratureError as exc:
            # e.g. (sup|q|)^(kappa+1) over/underflowing at a large kappa
            notes.append(f"integral tests skipped: {exc}")

    if "tail" in methods and model.triplet.jump_density is not None \
            and model.drift_vector is None:
        dens = model.triplet.jump_density
        r_tail = max(r, 2.0 * dens.u0, 1.0)
        try:
            tw = tail_test_weak(dens, kappa, r_tail)
            if tw.decided_state == DIVERGES:
                fire("tail", "weak", "tail-weak",
                     "integrated-tail sup test diverges", tw.to_json())
            ts = tail_test_strong(dens, kappa, r_tail)
            if ts.decided_state == CONVERGES:
                iff_ok = dens.monotone_verified() and (
                    quadratic_growth_floor(dens)
                    or assumptions["perturbation_margin"])
                if iff_ok:
                    fire("tail", "strong", "tail-strong",
                         "integrated-tail inf test converges "
                         "(equivalence hypotheses verified)", ts.to_json())
                else:
                    fire("tail", "info", "tail-strong-consistent",
                         "integrated-tail inf test converges "
                         "(necessary for the strong side)", ts.to_json())
            tm = moment_tail_test(dens, kappa, r_tail)
            if tm.decided_state == CONVERGES and cos_moment_condition(dens):
                fire("tail", "strong", "cos-moment-strong",
                     "truncated-moment tail test converges and the "
                     "cosine-moment floor is positive", tm.to_json())
        except (NotApplicableError, QuadratureError) as exc:
            notes.append(f"tail tests not applicable: {exc}")

    if "index" in methods:
        try:
            # lazy, so the records of the rules before a failing one are kept
            for rules in (index_bound_rules, moment_rules, shape_diagnostic):
                for rule in rules(model, kappa):
                    fire("index", *rule)
        except LevyTransienceError as exc:
            notes.append(f"index rules skipped: {exc}")

    return records, evidence, notes


def _sector_constant(model, assumptions):
    asserted = assumptions.get("sector_constant")
    candidates = [asserted] if asserted is not None else [0.0, 0.5, 0.9, 0.99]
    for c in candidates:
        ok, _ = sector_check(model, c)
        if ok:
            return c
    return None


def _decide(evidence):
    """The highest precedence level with evidence fixes the verdict; weak
    and strong evidence at that level give Inconclusive."""
    top = max(map(_PRECEDENCE.get, evidence), default=None)
    sides = {s for m in evidence if _PRECEDENCE[m] == top for s in evidence[m]}
    if sides == {"weak"}:
        return WEAKLY_TRANSIENT
    return STRONGLY_TRANSIENT if sides == {"strong"} else INCONCLUSIVE


def _aggregate(model, evidence, assumptions, notes):
    verdict = _decide(evidence)
    conditional = []
    if verdict == INCONCLUSIVE and evidence:
        notes.append("conflicting weak and strong evidence at the same "
                     "precedence; reporting inconclusive")
    elif verdict == WEAKLY_TRANSIENT:
        unconditional = model.is_state_independent and symmetry_check(model)
        if not unconditional and not assumptions["weak_test_hypothesis"]:
            conditional.append(
                "weak verdict is conditional on the weak-test hypothesis "
                "for state-dependent symbols")
    elif verdict == STRONGLY_TRANSIENT \
            and _sector_constant(model, assumptions) is None:
        conditional.append(
            "strong verdict is conditional on the sector condition")
    return verdict, conditional


def kappa_boundary(model: SymbolModel, tol=0.01, lo=0.0, hi=8.0, r=1.0,
                   methods=ALL_METHODS) -> float:
    """Bisection for the kappa separating strong from weak transience."""
    check_positive("tol", tol)
    check_kappa(lo)
    check_kappa(hi)
    check_positive("radius", r)
    _check_methods(methods)
    gate = transience_gate(model, r)
    if gate == GATE_RECURRENT:
        raise NotTransientError("process is not transient; no boundary exists")

    def probe(kappa):
        verdict = classify_verdict(model, kappa, r, methods, gate)
        if verdict != INCONCLUSIVE:
            return verdict
        refined = weak_integral_kappa(model, kappa, r).decided_state
        return WEAKLY_TRANSIENT if refined == DIVERGES else STRONGLY_TRANSIENT

    v_lo, v_hi = probe(lo), probe(hi)
    if v_lo == v_hi:
        raise ConfigurationError(
            f"no weak/strong boundary in kappa range [{lo}, {hi}]: both ends "
            f"classify as {v_lo}")
    if v_lo != STRONGLY_TRANSIENT:
        raise ConfigurationError(
            "expected strong transience at the low end of the kappa range")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):   # no float left between the ends
            break
        if probe(mid) == WEAKLY_TRANSIENT:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
