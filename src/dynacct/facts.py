"""Paired-trace fact assertions for the bounded tally protocol.

``gen_facts`` checks six single-deviation invariants of ``SigmaGen``, plus
bounded state, on a (conforming, deviating) trace pair with state logs,
such as ``verifier.run_paired_defection`` builds.  Its public entry point
is ``verifier.assert_gen_facts``.

A paired defection plays only the few rounds until the deviating run
rejoins the honest run, so most of the two traces is equal.  The checks
therefore skip every unit that provably cannot fail, and compare the rest
exactly as a full comparison would, with the same messages:

* F3/F4 skip a snapshot pair both traces hold as one object, the tally
  part of a pair whose tally lists are equal, and the report part of a
  pair whose report lists, or just their reports about the deviator from
  rounds other than m, are equal: equal lists parse to equal entries, so
  no key can differ.
* F5/F6 skip a round when every neighbour of the deviator ends the round
  before with equal tally lists in both traces: the two punish masses are
  then equal, so the round neither fails nor adds to the window's mass.
* Bounded state reads each snapshot's lists as they are, in one unsorted
  pass per trace, and keeps the smallest violating (agent, round): the
  same first violation as a walk in sorted order, without the sort.

``tests/oracles.reference_gen_facts`` is the full comparison, and
``tests/test_facts.py`` holds the two to equal reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _snap_pend(snap: dict) -> dict[tuple[int, int], int]:
    return {tuple(k): v for k, v in snap.get("pend", [])}


def _snap_acc(snap: dict, subject: AgentId) -> dict[tuple[int, int, int], str]:
    """The snapshot's reports (v, s, r) -> verdict about ``subject``."""
    return {tuple(k): v for k, v in snap.get("acc", []) if k[1] == subject}


def _cached(parse):
    """``parse`` of a snapshot, once per snapshot object, also when both
    traces hold it; they keep it alive, so its ``id`` stays its own."""
    parsed: dict[int, object] = {}
    return lambda snap: (parsed[id(snap)] if id(snap) in parsed
                         else parsed.setdefault(id(snap), parse(snap)))


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
    rationals.  F2 and F6 presuppose a connectivity-restricted family (the
    dissemination arguments need it); on other families they fail honestly.

    A snapshot that both traces hold as the same object (the deviating
    trace shares the honest run's snapshots of rounds before m and, once
    it has rejoined the honest run, of the rounds after, except the
    deviator's relabelled ones) is equal in both: F3/F4 skip the pair, and
    the bounded-state check reads it only in the conforming trace.  Every
    other skip (the module docstring lists them) also needs the skipped
    lists to be equal, and so cannot hide a failure or change a message.
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
    pend = _cached(_snap_pend)
    last = min(conform.last_round, deviate.last_round)
    found = _find_deviation(conform, deviate, m, last)
    facts: dict[str, Optional[str]] = {k: None for k in FACT_NAMES}
    if found is None:
        return FactReport(facts=facts)   # conforming pair: vacuously fine
    i, defected = found
    # F1 and F3 read only reports about i: keep just those
    acc = _cached(lambda snap: _snap_acc(snap, i))

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
    for M in range(m, end + 1):
        for v in range(n):
            if v == i:
                continue
            reached = holders[v][M - m] if v in holders else 0
            for l in range(n):
                if l == i:
                    continue
                val = acc(D[(l, M)]).get((v, i, m))
                if not reached >> l & 1:
                    if val is not None:
                        facts["F1_accusation_accuracy"] = (
                            f"agent {l} holds ({v},{i},{m}) at end of {M} "
                            f"without an information path")
                        break
                else:
                    want = "bad" if v in defected else "good"
                    if val != want:
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
        x = max(pend(D[(o, m)]).get((i, residue), 0)
                for o in range(n) if o != i)
        y = deg_m if defected else 0
        want = y + max(x - deg_m, 0)
        for l in range(n):
            if l == i:
                continue
            got = pend(D[(l, m + n - 1)]).get((i, (m + n) % n), 0)
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
    # A snapshot shared by both traces is equal to itself: skip it.  Equal
    # tally lists parse to equal tallies, and equal report lists (or just
    # equal lists of the reports about i from rounds other than m) to equal
    # such reports: only a part whose lists differ is compared key by key.
    def reports_elsewhere(snap) -> list:
        return [e for e in snap.get("acc", []) if e[0][1] == i and e[0][2] != m]

    for M in range(m, last + 1):
        for l in range(n):
            if l == i or C[(l, M)] is D[(l, M)]:
                continue
            sc, sd = C[(l, M)], D[(l, M)]
            if sc.get("pend", []) != sd.get("pend", []):
                pc, pd = pend(sc), pend(sd)
                for key in sorted((set(pc) | set(pd))):
                    s, c = key
                    if s != i:
                        continue
                    rep = _represented_round(c, M, n)
                    same_needed = not (rep >= m and (rep - m) % n == 0)
                    if same_needed and pc.get(key, 0) != pd.get(key, 0):
                        facts["F3_other_rounds_untouched"] = (
                            f"agent {l} end of {M}: pend[{s}][{rep}] differs "
                            f"({pc.get(key, 0)} vs {pd.get(key, 0)})")
                    if pd.get(key, 0) < pc.get(key, 0):
                        facts["F4_pend_dominance"] = (
                            f"agent {l} end of {M}: pend[{s}] {pd.get(key, 0)} < "
                            f"{pc.get(key, 0)}")
            if (sc.get("acc", []) != sd.get("acc", [])
                    and reports_elsewhere(sc) != reports_elsewhere(sd)):
                ac, ad = acc(sc), acc(sd)
                for key in sorted(set(ac) | set(ad)):
                    if key[2] == m:     # the deviation round's own reports
                        continue
                    if ac.get(key) != ad.get(key):
                        facts["F3_other_rounds_untouched"] = (
                            f"agent {l} end of {M}: report {key} differs "
                            f"({ac.get(key)} vs {ad.get(key)})")

    # F5/F6: expected punish mass toward i, computed from the tallies
    # (the sum of min(1, pend/deg_i) over i's neighbours, over one denominator)
    def expected_hits(log, M: int) -> Fraction:
        rg = graph.at(M)
        deg_i = rg.degree(i)
        if deg_i == 0:
            return Fraction(0)
        return Fraction(sum(min(pend(log[(j, M - 1)]).get((i, M % n), 0),
                                deg_i) for j in rg.neighbors(i)), deg_i)

    def same_tallies(M: int) -> bool:
        """Whether every neighbour of i at M ends round M-1 with equal
        tally lists in both traces, so that both masses are equal."""
        for j in graph.at(M).neighbors(i):
            sc, sd = C[(j, M - 1)], D[(j, M - 1)]
            if sc is not sd and sc.get("pend", []) != sd.get("pend", []):
                return False
        return True

    extra_in_window = Fraction(0)
    for M in range(m + 1, last + 1):
        if same_tallies(M):     # hd == hc: nothing to flag or to add
            continue
        hc = expected_hits(C, M)
        hd = expected_hits(D, M)
        if hd < hc:
            facts["F5_round_utility_dominance"] = (
                f"round {M}: deviating punish mass {hd} < conforming {hc}")
            break
        if M <= m + n * n:
            extra_in_window += hd - hc
        elif hd != hc:
            facts["F6_punishment_mass_window"] = (
                f"round {M} > m+n^2 still differs ({hd} vs {hc})")
            break
    if facts["F6_punishment_mass_window"] is None and defected:
        want = Fraction(deg_m)
        if last >= m + n * n and extra_in_window != want:
            facts["F6_punishment_mass_window"] = (
                f"extra expected punishments {extra_in_window} != deg {want}")
        elif params.pi * extra_in_window < params.beta * extra_in_window:
            facts["F6_punishment_mass_window"] = "pi < beta on punish mass"

    # boundedness: tallies inside [0, n-1], state within the static bound,
    # read straight from the snapshot's lists (which hold each key once);
    # the deviating trace's snapshots shared with the conforming trace are
    # checked there.  One unsorted pass per trace keeps the smallest
    # violating (agent, round), so the message names the first violation
    # in sorted order, the conforming trace's before the deviating one's.
    bound = SigmaGen.static_state_bound(n)
    for log, shared in ((C, {}), (D, C)):
        first = None
        for key, snap in log.items():
            if shared.get(key) is snap:
                continue
            tallies = snap.get("pend", [])
            kind = ("size" if len(tallies) + len(snap.get("acc", ())) > bound
                    else None)
            for _, v in tallies:
                if v > n - 1 or v < 0:
                    kind = "tally"      # named before the size
                    break
            if kind and (first is None or key < first[0]):
                first = key, kind
        if first:
            (l, M), kind = first
            facts["bounded_state"] = (
                f"agent {l} end of {M}: tally outside [0, n-1]"
                if kind == "tally" else
                f"agent {l} state exceeds {bound} entries")
            break

    return FactReport(facts=facts)


def _find_deviation(conform: Trace, deviate: Trace, m: int,
                    last: int) -> Optional[tuple[AgentId, set[AgentId]]]:
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
