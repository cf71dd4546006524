"""The correctness gate: every verdict the benchmark times is checked here.

A wrong verdict is never a metric: ``judge`` returns what is wrong with it,
and the runner stops and names the graph.  A "yes" must carry a witness that
``dl.verify_fidl`` accepts; a gate "no" must carry an obstruction that the
independent code in ``reference`` confirms; where the oracle also ran, both
engines must agree.
"""

from __future__ import annotations

import reference


class WrongVerdict(Exception):
    """A verdict failed the correctness gate; the message names the graph."""


def _gate_claim_error(adj: list[int], names: tuple[str, ...], verdict) -> str | None:
    """What is wrong with the obstruction behind a "no" from a gate, if anything."""
    detail = verdict.detail or {}
    if verdict.stage == "cfs":
        ref = reference.cfs_status(adj)
        claimed = detail.get("status")
        if ref == "StronglyCFS" or claimed != ref:
            return f"cfs gate reports {claimed}, the 4-set enumeration finds {ref}"
    elif verdict.stage == "cycles":
        index = {name: v for v, name in enumerate(names)}
        try:
            cycle = [index[name] for name in detail["cycle"]]
        except (KeyError, TypeError):
            return f"cycle gate reports no readable cycle: {detail}"
        kind = detail.get("kind")
        if kind == "odd_cycle":
            if not reference.is_odd_closed_walk(adj, cycle):
                return f"cycle gate's odd cycle {detail['cycle']} is not an odd closed walk"
        elif reference.is_forbidden_cycle(adj, cycle) != kind:
            return f"cycle gate's {kind} {detail['cycle']} does not have that defect"
    return None


def judge(adj: list[int], g, verdict, expect: str | None, verify,
          oracle_verdict=None) -> str | None:
    """None when the verdict is right, else what is wrong with it.

    ``expect`` is the verdict the corpus guarantees (None when only the
    oracle knows); ``verify`` is ``dl.verify_fidl``.  Budget outcomes are failures, not
    wrong verdicts, and are left to the caller.
    """
    decision = verdict.decision
    if decision == "budget_exceeded":
        return None
    if oracle_verdict is not None and oracle_verdict.decision != "budget_exceeded":
        if oracle_verdict.decision != decision:
            return (f"engines disagree: search says {decision}, "
                    f"oracle says {oracle_verdict.decision}")
        if decision == "yes" and not verify(g, oracle_verdict.lam).passed:
            return "the oracle's witness fails verify_fidl"
    if expect is not None and decision != expect:
        return f"expected {expect}, got {decision} at stage {verdict.stage} ({verdict.reason})"
    if decision == "yes":
        if verdict.lam is None or not verify(g, verdict.lam).passed:
            return "the witness of this yes fails verify_fidl"
        return None
    if decision == "no":
        return _gate_claim_error(adj, g.names, verdict)
    return f"refused at stage {verdict.stage} ({verdict.reason}), but the graph qualifies"
