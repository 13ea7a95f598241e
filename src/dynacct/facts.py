"""Paired-trace fact assertions for the bounded tally protocol.

``gen_facts`` checks six single-deviation invariants of ``SigmaGen``, plus
bounded state, on a (conforming, deviating) trace pair with state logs,
such as ``verifier.run_paired_defection`` builds.  Its public entry point
is ``verifier.assert_gen_facts``.

A paired defection plays only the few rounds until the deviating run
rejoins the honest run, and its trace holds the honest run's snapshots
everywhere else.  The checks therefore skip every unit that provably
cannot fail, and compare the rest exactly as a full comparison would,
with the same messages:

* The deviating trace's own entries are found in one pass: those whose
  snapshot is not the conforming trace's at the same (agent, round).
  Every other entry is equal in both traces, so F3-F6 and the deviating
  bounded-state pass read only the own entries.
* F1-F6 read only the tallies and reports about the deviator; each
  distinct list is parsed once per check.  F3/F4 compare a pair's tallies
  only if its tally lists differ, and its reports from rounds other than
  m only if its report lists differ: equal lists parse to equal entries.
* F5/F6 read a round only if a neighbour of the deviator ends the round
  before with an own entry whose tally list is not the conforming one:
  otherwise both punish masses are equal, so the round neither fails nor
  adds to the window's mass.  Masses are integer numerators over the
  deviator's degree; a rational is built only for a message or for a
  round that adds to the window's mass.
* Bounded state keeps the smallest violating (agent, round), the same
  first violation as a walk in sorted order, without the sort.  A
  deviating snapshot whose lists are the conforming snapshot's own (the
  deviator's relabelled copies) is checked there.
``tests/oracles.reference_gen_facts`` is the full comparison, and
``tests/test_facts.py`` holds the two to equal reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import is_not, itemgetter
from typing import Optional

from .evolving_graph import _reach
from .game_core import ActionKind, Trace
from .protocols import SigmaGen

AgentId = int


@dataclass
class FactReport:
    facts: dict[str, Optional[str]]

    @property
    def passed(self) -> bool:
        return all(v is None for v in self.facts.values())

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "facts": {k: ("pass" if v is None else v)
                          for k, v in sorted(self.facts.items())}}


FACT_NAMES = ("F1_accusation_accuracy", "F2_pend_convergence",
              "F3_other_rounds_untouched", "F4_pend_dominance",
              "F5_round_utility_dominance", "F6_punishment_mass_window",
              "bounded_state")


def check_deviation_round(cfg, m: int):
    """A deviation round must be one the run plays: 1..horizon."""
    if not 1 <= m <= cfg.horizon:
        raise ValueError(f"deviation round {m} is outside rounds 1.."
                         f"{cfg.horizon} (horizon {cfg.horizon})")


def _represented_round(c: int, end_round: int, n: int) -> int:
    """Absolute round currently represented by pend residue c after the
    end-of-round ``end_round`` update: the unique round in
    [end_round-n+2, end_round+1] congruent to c mod n."""
    lo = end_round - n + 2
    return lo + ((c - lo) % n)


def gen_facts(cfg, paired: tuple[Trace, Trace], m: int) -> FactReport:
    """Check the six single-deviation invariants of the bounded tally
    protocol on a (conforming, deviating) trace pair of the
    ``verifier.SimConfig`` ``cfg``.

    Exact: tallies are compared as integers, expected punishment masses as
    integer numerators over the deviator's degree.  F2 and F6 presuppose a
    connectivity-restricted family (the dissemination arguments need it);
    on other families they fail honestly.  Every skip the module docstring
    lists needs the skipped parts to be equal, and so cannot hide a
    failure or change a message.
    """
    conform, deviate = paired
    n = cfg.family.n
    graph = cfg.graph
    params = cfg.params
    check_deviation_round(cfg, m)
    if conform.state_log is None or deviate.state_log is None:
        raise ValueError("paired traces need state logs, as "
                         "verifier.run_paired_defection returns them")
    C, D = conform.state_log, deviate.state_log
    last = min(conform.last_round, deviate.last_round)
    found = _find_deviation(conform, deviate, m, last)
    facts: dict[str, Optional[str]] = {k: None for k in FACT_NAMES}
    if found is None:
        return FactReport(facts=facts)   # conforming pair: vacuously fine
    i, defected = found
    # the deviating trace's own entries, in round order
    own = sorted(compress(D, map(is_not, D.values(), map(C.get, D))),
                 key=itemgetter(1, 0))
    # F1-F6 read only tallies and reports about i: each distinct list is
    # parsed once into those, tallies by residue, and reports from round m
    # by victim and from other rounds by key
    tallies: dict[int, dict] = {}
    reports: dict[int, tuple[dict, dict]] = {}

    def tally(snap) -> dict[int, int]:
        got = snap.get("pend", ())
        parsed = tallies.get(id(got))
        if parsed is None:
            parsed = tallies[id(got)] = {c: v for (s, c), v in got if s == i}
        return parsed

    def acc(snap) -> tuple[dict[int, str], dict[tuple[int, int, int], str]]:
        got = snap.get("acc", ())
        parsed = reports.get(id(got))
        if parsed is None:
            parsed = reports[id(got)] = {}, {}
            for k, v in got:
                if k[1] == i:
                    if k[2] == m:
                        parsed[0][k[0]] = v
                    else:
                        parsed[1][tuple(k)] = v
        return parsed

    deg_m = graph.at(m).degree(i)
    residue = m % n

    # F1: accusation accuracy against the interference-free reachability
    # oracle: holders[v][M - m] is the mask of the agents that v's report
    # (v, i, m) can have reached by the end of round M
    end = min(m + n - 2, last)
    holders = {}
    for v in graph.at(m).neighbors(i):
        reach = _reach(graph, v, m + 1, keep=~(1 << i))
        holders[v] = [1 << v] + [1 << v | next(reach)[1] for _ in range(m, end)]
    others = [a for a in range(n) if a != i]
    for M in range(m, end + 1):
        held = [acc(D[(l, M)])[0] for l in others]
        for v in others:
            reached = holders[v][M - m] if v in holders else 0
            want = "bad" if v in defected else "good"
            for l, got in zip(others, held):
                val = got.get(v)
                if not reached >> l & 1:
                    if val is not None:
                        facts["F1_accusation_accuracy"] = (
                            f"agent {l} holds ({v},{i},{m}) at end of {M} "
                            f"without an information path")
                        break
                elif val != want:
                    facts["F1_accusation_accuracy"] = (
                        f"agent {l} at end of {M}: report ({v},{i},{m}) "
                        f"= {val}, expected {want}")
                    break
            if facts["F1_accusation_accuracy"]:
                break
        if facts["F1_accusation_accuracy"]:
            break

    # F2: pend about i converges to y + max(x - deg, 0) at round m+n
    if m + n - 1 <= last:
        x = max(tally(D[(o, m)]).get(residue, 0) for o in range(n) if o != i)
        y = deg_m if defected else 0
        want = y + max(x - deg_m, 0)
        for l in range(n):
            if l == i:
                continue
            got = tally(D[(l, m + n - 1)]).get((m + n) % n, 0)
            if got != want:
                facts["F2_pend_convergence"] = (
                    f"agent {l}: pend[i][{m + n}] = {got}, expected {want}")
                break
    else:
        facts["F2_pend_convergence"] = "horizon too short to reach round m+n-1"

    # F3/F4: deviator-subject entries for rounds other than m are untouched,
    # and the deviating run's tallies dominate.  Entries about the deviator
    # never travel through the deviator (senders cannot testify about
    # themselves), so these are exact; third-party gossip may lag one round
    # behind while the deviator's payload is suppressed and is not compared.
    # Only the deviating trace's own entries can differ, and equal lists
    # parse to equal tallies and reports: only parts that differ are
    # compared key by key.
    for l, M in own:
        if l == i or not m <= M <= last:
            continue
        sc, sd = C[(l, M)], D[(l, M)]
        if sc.get("pend", []) != sd.get("pend", []):
            pc, pd = tally(sc), tally(sd)
            for c in sorted(set(pc) | set(pd)):
                rep = _represented_round(c, M, n)
                same_needed = not (rep >= m and (rep - m) % n == 0)
                if same_needed and pc.get(c, 0) != pd.get(c, 0):
                    facts["F3_other_rounds_untouched"] = (
                        f"agent {l} end of {M}: pend[{i}][{rep}] differs "
                        f"({pc.get(c, 0)} vs {pd.get(c, 0)})")
                if pd.get(c, 0) < pc.get(c, 0):
                    facts["F4_pend_dominance"] = (
                        f"agent {l} end of {M}: pend[{i}] {pd.get(c, 0)} < "
                        f"{pc.get(c, 0)}")
        if sc.get("acc", []) == sd.get("acc", []):
            continue
        # the deviation round's own reports are not compared
        ac, ad = acc(sc)[1], acc(sd)[1]
        if ac != ad:
            for key in sorted(set(ac) | set(ad)):
                if ac.get(key) != ad.get(key):
                    facts["F3_other_rounds_untouched"] = (
                        f"agent {l} end of {M}: report {key} differs "
                        f"({ac.get(key)} vs {ad.get(key)})")

    # F5/F6: expected punish mass toward i in round M, from the tallies:
    # the sum of min(1, pend/deg_i) over i's neighbours, kept as its
    # numerator over deg_i.  Both masses are equal in a round whose every
    # neighbour of i ends round M-1 with the same tally list in both
    # traces, so only the rounds after an own entry with another list are
    # read.
    def hits(log, M: int, nbrs, deg: int) -> int:
        return sum(min(tally(log[(j, M - 1)]).get(M % n, 0), deg)
                   for j in nbrs)

    rounds = set()
    for j, M in own:
        if (j != i and m <= M < last and M + 1 not in rounds
                and C[(j, M)].get("pend") is not D[(j, M)].get("pend")
                and j in graph.at(M + 1).neighbors(i)):
            rounds.add(M + 1)
    extra = Fraction(0)     # the window's expected punishments
    for M in sorted(rounds):
        rg = graph.at(M)
        deg, nbrs = rg.degree(i), rg.neighbors(i)
        hc, hd = hits(C, M, nbrs, deg), hits(D, M, nbrs, deg)
        if hd < hc:
            facts["F5_round_utility_dominance"] = (
                f"round {M}: deviating punish mass {Fraction(hd, deg)} < "
                f"conforming {Fraction(hc, deg)}")
            break
        if M <= m + n * n:
            if hd != hc:
                extra += Fraction(hd - hc, deg)
        elif hd != hc:
            facts["F6_punishment_mass_window"] = (
                f"round {M} > m+n^2 still differs ({Fraction(hd, deg)} vs "
                f"{Fraction(hc, deg)})")
            break
    if facts["F6_punishment_mass_window"] is None and defected:
        # never negative, since a round that would lower it fails F5
        if last >= m + n * n and extra != deg_m:
            facts["F6_punishment_mass_window"] = (
                f"extra expected punishments {extra} != deg {deg_m}")
        elif extra and params.pi < params.beta:
            facts["F6_punishment_mass_window"] = "pi < beta on punish mass"

    # boundedness: tallies inside [0, n-1], state within the static bound,
    # read straight from the snapshot's lists (which hold each key once).
    # The first violation in sorted (agent, round) order is named, the
    # conforming trace's before the deviating one's; a deviating snapshot
    # whose lists are the conforming snapshot's own is checked there.
    bound = SigmaGen.static_state_bound(n)
    first = min(((key, kind) for key, snap in C.items()
                 if (kind := _violation(snap, n, bound))), default=None)
    if first is None:
        for key in own:
            snap, twin = D[key], C.get(key, {})
            if (snap.get("pend") is twin.get("pend")
                    and snap.get("acc") is twin.get("acc")):
                continue
            kind = _violation(snap, n, bound)
            if kind and (first is None or key < first[0]):
                first = key, kind
    if first:
        (l, M), kind = first
        facts["bounded_state"] = (
            f"agent {l} end of {M}: tally outside [0, n-1]"
            if kind == "tally" else f"agent {l} state exceeds {bound} entries")

    return FactReport(facts=facts)


def _violation(snap: dict, n: int, bound: int) -> Optional[str]:
    """"tally" if a tally of the snapshot is outside [0, n-1], else "size"
    if it holds more than ``bound`` entries, else None."""
    tallies = snap.get("pend", ())
    for _, v in tallies:
        if v > n - 1 or v < 0:
            return "tally"
    return "size" if len(tallies) + len(snap.get("acc", ())) > bound else None


def _find_deviation(conform: Trace, deviate: Trace, m: int,
                    last: int) -> Optional[tuple[AgentId, set[AgentId]]]:
    if last < m:
        raise ValueError(f"the traces end at round {last}, before the "
                         f"deviation round {m}")
    for M in range(1, m):
        if conform.history.profiles[M - 1] != deviate.history.profiles[M - 1]:
            raise ValueError(f"traces diverge at round {M} before the deviation")
    pc = conform.history.profiles[m - 1]
    pd = deviate.history.profiles[m - 1]
    devs = [a for a in sorted(pc.acts) if pc.acts[a] != pd.acts[a]]
    if not devs:
        return None
    if len(devs) > 1:
        raise ValueError(f"expected exactly one deviating agent at round {m}, "
                         f"found {devs}")
    i = devs[0]
    defected = {j for j, a in pd.acts[i].items()
                if a.kind is ActionKind.DEFECT
                and pc.acts[i][j].kind is not ActionKind.DEFECT}
    return i, defected
