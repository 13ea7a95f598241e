from __future__ import annotations

import copy
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynacct.evolving_graph import (EvolvingGraph, GraphFamily, LocalView,
                                    ObservationModel, RoundGraph)
from dynacct.game_core import (AVOID, COOPERATE, DEFECT, PUNISH, ActionKind,
                               Mode, UtilityParams, prop_punish, round_utility)
from dynacct.protocols import (ALL_NEIGHBORS, AccusationPunisher, AlwaysDefect,
                               ScheduledDefector, SigmaGen,
                               SigmaVal, StrategyConfigError, StrategyMachine,
                               UnsafePunisherProtocol, _deliver, _entry,
                               _gen_masks, _gen_snapshot, _Persona,
                               _rebuild_pend, _ShadowWorld, _slot_counts,
                               _slot_entries,
                               always_defect_until, build_deviation,
                               build_strategy, defect_at_rounds, sigma_gen,
                               sigma_val, single_evasive)
from dynacct.scenarios import (BUILTIN_SCENARIOS, builtin, complete_graph,
                               general_defaults, ring_graph,
                               valuable_defaults)
from dynacct.verifier import (SimConfig, _act, _begin_round, _HashDraws,
                              _simulate_machines, build_machines, simulate)

from .oracles import (FlatSigmaGen, SetAccusationPunisher, SetSigmaVal,
                      SetUnsafePunisher, flat_sigma_gen_key, gen_payload,
                      gen_payload_items, window_key, window_payload,
                      window_payload_items)
from .test_soundness import _RecordingRand

NO = ObservationModel.NEIGHBORS_ONLY
ND = ObservationModel.NEIGHBORS_AND_DEGREES


def fam_const(rg, obs=ND, horizon=12, name="g"):
    return GraphFamily(rg.n, (EvolvingGraph((), (rg,), name),), obs, horizon)


def k3_val_cfg(horizon=10, rho=2):
    fam = fam_const(complete_graph(3), obs=NO)
    return SimConfig(
        family=fam, member="g",
        strategies={a: {"strategy": "sigma_val", "rho": rho} for a in range(3)},
        horizon=horizon, params=valuable_defaults(3, rho))


class Recorder(StrategyMachine):
    """Delegating wrapper that logs each round's observations."""

    def __init__(self, inner):
        super().__init__(inner.me, inner.n)
        self.inner = inner
        self.mode = inner.mode
        self.uses_own_action = inner.uses_own_action
        self.log = []

    def begin_round(self, view):
        super().begin_round(view)
        self.inner.begin_round(view)

    def payload_for(self, j):
        return self.inner.payload_for(j)

    def act(self, rand):
        return self.inner.act(rand)

    def end_round(self, own_action, inbox):
        norm = {j: (a.kind.value, a.c, json.dumps(p, sort_keys=True))
                for j, (a, p) in sorted(inbox.items())}
        self.log.append((self.round, sorted(self.view.neighbors), norm))
        self.inner.end_round(own_action, inbox)

    def snapshot(self):
        return self.inner.snapshot()

    def state_key(self):
        return self.inner.state_key()

    def is_quiescent(self):
        return self.inner.is_quiescent()


def run_recorded(cfg, machines):
    recs = {a: Recorder(m) for a, m in machines.items()}
    _simulate_machines(cfg, dict(recs))
    return {a: recs[a].log for a in recs}


# ---------------------------------------------------------------------------
# sigma_val
# ---------------------------------------------------------------------------

def test_sigma_val_honest_all_cooperate():
    cfg = k3_val_cfg()
    t = simulate(cfg)
    for m in range(1, t.last_round + 1):
        for a in range(3):
            for act in t.history.profiles[m - 1].actions[a].per_neighbor.values():
                assert act.kind is ActionKind.COOPERATE


def test_sigma_val_accusation_after_defection():
    cfg = k3_val_cfg(horizon=6)
    machines = build_machines(cfg)
    machines[0] = ScheduledDefector(machines[0], {2: frozenset([1])},
                                    sincere=True)
    t = _simulate_machines(cfg, machines)
    # at the start of round 3 agent 1 holds one accusation against 0 for round 2
    assert ("accusations" in t.state_log[(1, 2)]
            and t.state_log[(1, 2)]["accusations"] == [(0, 2)])
    # and punishes proportionally at round 3
    act = t.history.profiles[2].actions[1].per_neighbor[0]
    assert act.kind is ActionKind.PROP_PUNISH and act.c == 1


def test_sigma_val_accusation_propagation_matches_influence_oracle():
    # 4-agent line family: accusations travel exactly as interference-free
    # influence from the victim allows
    line = RoundGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    fam = fam_const(line, obs=NO, horizon=12)
    rho = 6
    cfg = SimConfig(family=fam, member="g",
                    strategies={a: {"strategy": "sigma_val", "rho": rho}
                                for a in range(4)},
                    horizon=8, params=valuable_defaults(4, 2))
    machines = build_machines(cfg)
    deviator, victim, m = 1, 0, 1
    machines[deviator] = ScheduledDefector(machines[deviator],
                                           {m: frozenset([victim])}, sincere=True)
    t = _simulate_machines(cfg, machines)
    from .oracles import oracle_influences
    g = cfg.graph
    # the report for round m stays in the window through round m+rho-1
    for M in range(m, m + rho):
        for l in range(4):
            if l == deviator:
                continue
            holds = (deviator, m) in [tuple(x) for x in
                                      t.state_log[(l, M)]["accusations"]]
            want = (l == victim or oracle_influences(
                g, victim, m, l, M + 1, exclude=deviator))
            assert holds == want, (l, M)


def test_sigma_val_requires_valuable_mode():
    with pytest.raises(StrategyConfigError):
        sigma_val(0, 3, 2, general_defaults())


def test_sigma_val_self_reports_ignored():
    # stuffing or stripping payload entries about oneself cannot change the
    # accusation counts others hold
    class Liar(SigmaVal):
        def __init__(self, me, n, rho, variant):
            super().__init__(me, n, rho)
            self.variant = variant

        def payload_for(self, j):
            pay = super().payload_for(j)
            mine = sum(1 << k * self.n + self.me for k in range(self.rho))
            if self.variant == "strip":
                pay &= ~mine        # clear every bit about me
            elif self.variant == "stuff":
                pay |= 1 << self.me     # accuse me of the last round
            return pay

    logs = []
    for variant in ("honest", "strip", "stuff"):
        cfg = k3_val_cfg(horizon=6)
        machines = build_machines(cfg)
        inner = (SigmaVal(0, 3, 2) if variant == "honest"
                 else Liar(0, 3, 2, variant))
        machines[0] = ScheduledDefector(inner, {1: frozenset([1])}, sincere=True)
        t = _simulate_machines(cfg, machines)
        logs.append({(a, m): t.state_log[(a, m)]["accusations"]
                     for a in (1, 2) for m in range(1, 7)})
    assert logs[0] == logs[1] == logs[2]


WINDOWS = {"sigma_val": (SigmaVal, SetSigmaVal),
           "accusation_punisher": (AccusationPunisher, SetAccusationPunisher),
           "unsafe_scripted": (UnsafePunisherProtocol, SetUnsafePunisher)}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_packed_window_matches_the_set_reference(name, rng):
    # a packed window machine and the set-based reference, driven through
    # the same seeded random rounds (neighbours, own actions, neighbours'
    # actions and payloads from windows of 1..5 rounds, some about the
    # sender or the receiver), act, send, snapshot and rest alike; their keys
    # have the same classes, and a label-free key is the reference's in the
    # packed encoding, relabelled too
    packed, reference = WINDOWS[name]
    valuable = packed.mode is Mode.VALUABLE
    kinds = ([COOPERATE, DEFECT, AVOID, prop_punish(1)] if valuable
             else [COOPERATE, DEFECT, PUNISH])
    stateful = 0
    for n in range(2, 7):
        for rho in range(1, 5):
            me = rng.randrange(n)
            others = [a for a in range(n) if a != me]
            classes = {}     # packed key -> reference key
            for _ in range(4):
                machines = (packed(me, n, rho), reference(me, n, rho))
                for t in range(1, 3 * rho + 5):
                    nbrs = frozenset(a for a in others if rng.random() < 0.7)
                    view = LocalView(me, t, nbrs)
                    for mach in machines:
                        mach.begin_round(view)
                    got, want = machines
                    assert (window_payload_items(got.payload_for(0), t, n, rho)
                            == want.payload_for(0)["acc"])
                    act = got.act(None)
                    assert act == want.act(None), (n, rho, me, t)
                    own = {j: rng.choice(kinds) for j in view.order}
                    inbox = {}
                    for j in view.order:
                        # the sender's window may be longer or shorter
                        theirs = rng.randint(1, 5)
                        items = [(s, r) for s in range(n)
                                 for r in range(max(1, t - theirs), t)
                                 if rng.random() < 0.3]
                        inbox[j] = (rng.choice(kinds), items, theirs)
                    got.end_round(own, {
                        j: (a, window_payload(items, t, n, theirs))
                        for j, (a, items, theirs) in inbox.items()})
                    want.end_round(own, {j: (a, {"acc": items})
                                         for j, (a, items, _) in inbox.items()})
                    assert got.snapshot() == want.snapshot(), (n, rho, me, t)
                    assert got.is_quiescent() == want.is_quiescent()
                    stateful += not got.is_quiescent()
                    key, ref = got.state_key(), want.state_key(t + 1)
                    assert classes.setdefault(key, ref) == ref
                    if packed.relabel_key is not None:
                        assert key == window_key(ref, n)
                        pi = rng.sample(range(n), n)
                        assert (packed.relabel_key(key, pi)
                                == window_key(reference.relabel_key(ref, pi), n))
            assert len(set(classes.values())) == len(classes)
    assert stateful


# ---------------------------------------------------------------------------
# sigma_gen
# ---------------------------------------------------------------------------

def test_sigma_gen_honest_pend_stays_zero():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=10)
    t = _simulate_machines(cfg, build_machines(cfg))
    for (a, m), snap in t.state_log.items():
        assert snap["pend"] == []
        for act in t.history.profiles[m - 1].actions[a].per_neighbor.values():
            assert act.kind is ActionKind.COOPERATE


def test_sigma_gen_single_defection_tally():
    # degree-d defection at round m: every agent's tally for the deviator's
    # residue equals d from round m+n-1 on, then drains within n periods
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=30)
    n, m, i = 4, 2, 0
    machines = build_machines(cfg)
    machines[i] = always_defect_until(machines[i], m)  # defects rounds 1..2
    t = _simulate_machines(cfg, machines)
    d = cfg.graph.at(m).degree(i)
    for l in range(1, 4):
        pend = dict((tuple(k), v) for k, v in t.state_log[(l, m + n - 1)]["pend"])
        assert pend.get((i, (m + n) % n), 0) == d
    # all tallies zero again within n^2 of the last deviation
    for l in range(4):
        pend = t.state_log[(l, m + n * n)]["pend"]
        assert pend == []


def test_sigma_gen_needs_degrees_and_general_mode():
    with pytest.raises(StrategyConfigError):
        sigma_gen(0, 3, general_defaults(), NO)
    with pytest.raises(StrategyConfigError):
        sigma_gen(0, 3, valuable_defaults(3, 2), ND)


def test_sigma_gen_state_bound_and_quiescence():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=24)
    machines = build_machines(cfg)
    machines[0] = defect_at_rounds(machines[0], [1, 2, 5])
    t = _simulate_machines(cfg, machines)
    bound = SigmaGen.static_state_bound(4)
    for (a, m), snap in t.state_log.items():
        assert len(snap["pend"]) + len(snap["acc"]) <= bound
        assert all(0 <= v <= 3 for _, v in snap["pend"])
    assert t.state_log[(1, 24)]["pend"] == []


class _InflatingSigmaGen(SigmaGen):
    """Gossips every tally at the full width of its field."""

    def payload_for(self, j):
        _, known, bad = super().payload_for(j)
        return (1 << self.n * self.n * (self.n - 1)) - 1, known, bad


def test_sigma_gen_cap_removal_detected():
    # with the cap, honest tallies clamp at n-1 against a tally-inflating
    # gossiper; without it (the reference's uncapped mutant) they pass n-1
    ring = ring_graph(4)
    fam = fam_const(ring, obs=ND)
    cfg = SimConfig(family=fam, member="g",
                    strategies={a: "sigma_gen" for a in range(4)},
                    horizon=12, params=general_defaults())
    capped = {a: SigmaGen(a, 4) for a in range(4)}
    capped[1] = _InflatingSigmaGen(1, 4)
    uncapped = {a: FlatSigmaGen(a, 4, _cap=False) for a in range(4)}
    uncapped[1] = FlatSigmaGen(1, 4, _cap=False, _pend_payload_inflate=7)
    for machines, expect_ok in ((capped, True), (uncapped, False)):
        machines[0] = ScheduledDefector(machines[0], {1: "all"}, sincere=True)
        t = _simulate_machines(cfg, machines)
        ok = all(v <= 3 for (a, m), snap in t.state_log.items()
                 for _, v in snap["pend"] if a != 1)
        assert ok == expect_ok


def _flat_payload(payload, n, m):
    """A SigmaGen payload sent at round m in the flat reference's wire
    form: each tally as a ((subject, residue), count) item and each known
    report bit as a ((victim, sender, round), report) item."""
    if payload is None:
        return None
    tallies, reports = gen_payload_items(payload, m, n)
    return {"pend": tuple(tallies), "acc": tuple(reports)}


def _random_gen_payload(rng, n, me, m):
    """Arbitrary gossip: any subject, residue and count in pend; report
    bits by and about anyone (self-claims, s == v, often the receiver's own
    row) in every slot, round m's included, with bad bits that have no
    known bit."""
    w, nn = n - 1, n * n
    pend = sum(((1 << rng.randint(0, w)) - 1) << (s * n + c) * w
               for s in range(n) for c in range(n) if rng.random() < 0.3)
    known = bad = 0
    for c in range(n):
        slot = sum(1 << b for b in range(nn) if rng.random() < 0.2)
        if rng.random() < 0.5:
            slot |= rng.getrandbits(n) << (me * n)
        known |= slot << c * nn
        bad |= rng.getrandbits(nn) << c * nn
    return pend, known, bad


def _random_gen_round(rng, n, me, m):
    """A view and an inbox for round m: random neighbours and degrees, each
    neighbour cooperating, punishing or defecting (which drops its payload),
    and sometimes sending nothing although it did not defect."""
    nbrs = [j for j in range(n) if j != me and rng.random() < 0.7]
    view = LocalView(me, m, frozenset(nbrs),
                     {j: rng.randint(1, n - 1) for j in nbrs})
    inbox = {}
    for j in nbrs:
        a = rng.choice([COOPERATE, PUNISH, DEFECT])
        pay = (None if a is DEFECT or rng.random() < 0.1
               else _random_gen_payload(rng, n, me, m))
        inbox[j] = (a, pay)
    return view, inbox


def test_sigma_gen_matches_flat_reference(rng):
    # the three-int machine and the flat-dict reference, fed identical
    # random rounds, act, draw, send and store identically; after
    # end_round(m) only the window rounds m-n+2..m are stored.  State keys
    # are equal exactly when the reference's frozenset keys are.  Gossip bad
    # bits without a known bit (which the reference never sees) and reports
    # in the receiver's own row reach the merge window, and both are ignored
    draws = tallies = stray_bad = own_row = 0
    keys: dict = {}
    for n in (2, 3, 4, 5):
        nn = n * n
        for me in range(n):
            new = SigmaGen(me, n)
            ref = FlatSigmaGen(me, n)
            for m in range(1, 4 * n + 4):
                view, inbox = _random_gen_round(rng, n, me, m)
                for _, p in inbox.values():
                    # the slots of the merge window's rounds m-n+1..m-1
                    for c in range(n) if p else ():
                        known, bad = (x >> c * nn & (1 << nn) - 1 for x in p[1:])
                        if c:
                            stray_bad += bool(bad & ~known)
                            own_row += bool(known >> me * n & (1 << n) - 1)
                new.begin_round(view)
                ref.begin_round(view)
                for j in sorted(view.neighbors):
                    assert (_flat_payload(new.payload_for(j), n, m)
                            == ref.payload_for(j))
                seed = rng.randrange(10 ** 6)
                r_new, r_ref = _RecordingRand(seed), _RecordingRand(seed)
                act = new.act(r_new)
                assert act == ref.act(r_ref)
                assert r_new.log == r_ref.log
                draws += len(r_ref.log)
                new.end_round(act, inbox)
                ref.end_round(act, {j: (a, _flat_payload(p, n, m))
                                    for j, (a, p) in inbox.items()})
                assert new.snapshot() == ref.snapshot()
                key, flat = new.state_key(), ref.state_key(m + 1)
                assert key == flat_sigma_gen_key(flat, n)
                keys.setdefault((n, key), set()).add((n, flat))
                assert new.is_quiescent() == ref.is_quiescent()
                leaving = (1 << nn) - 1    # slot 0: round m+1's, empty
                assert not (new.known | new.bad) & leaving
                tallies += len(ref.pend)
    assert draws > 0 and tallies > 0   # punishments were drawn and tallied
    assert stray_bad > 0 and own_row > 0
    assert all(len(flats) == 1 for flats in keys.values())
    assert len(set().union(*keys.values())) == len(keys)


def _snapshot_by_scan(mach: SigmaGen) -> list:
    """``SigmaGen.snapshot``'s reports decoded by testing every one of the
    n*n bits of every slot, read as the rounds m-n+2..m+1 of a state
    relative to round m+1 (``gen_payload``): the reference."""
    n, m = mach.n, mach.round
    slots = [(r, (r - m - 1) % n * n * n) for r in range(m - n + 2, m + 2)]
    return [((b // n, b % n, r), "bad" if mach.bad >> at + b & 1 else "good")
            for b in range(n * n) for r, at in slots
            if mach.known >> at + b & 1]


def test_sigma_gen_snapshot_decodes_every_stored_report(rng):
    # the set-bit decoder gives the scan's list, in its order, on random
    # report states from empty to full slots, stored in any round order
    reports = 0
    for n in (3, 4, 5):
        nn = n * n
        for _ in range(300):
            mach = SigmaGen(rng.randrange(n), n)
            mach.round = m = rng.randint(1, 3 * n)
            density = rng.choice([0.05, 0.3, 0.7, 1.0])
            window = list(range(max(1, m - n + 2), m + 1))
            rng.shuffle(window)
            for r in window:
                if rng.random() < 0.8:
                    known = sum(1 << b for b in range(nn)
                                if rng.random() < density)
                    at = (r - m - 1) % n * nn    # relative to round m+1
                    mach.known |= known << at
                    mach.bad |= (known & rng.getrandbits(nn)) << at
            pend = {(s, c): rng.randint(1, n - 1)
                    for s in range(n) for c in range(n) if rng.random() < 0.2}
            mach.pend, _, _ = gen_payload(pend.items(), (), m + 1, n)
            snap = mach.snapshot()
            assert snap["acc"] == _snapshot_by_scan(mach)
            assert snap["pend"] == sorted(pend.items())
            reports += len(snap["acc"])
    assert reports > 0


def test_sigma_gen_snapshot_decodes_each_slot_once(rng):
    # random states whose window slots are each empty, all good, all bad
    # or mixed: each slot's cached entries are the scan's reports of that
    # round, the interned ``_entry`` objects, and the snapshot joins them
    # in the scan's order
    kinds = set()
    for n in (2, 3, 4, 5):
        nn, full = n * n, (1 << n * n) - 1
        for _ in range(200):
            mach = SigmaGen(rng.randrange(n), n)
            mach.round = m = rng.randint(1, 3 * n)
            for r in range(max(1, m - n + 2), m + 1):
                kind = rng.choice(["empty", "good", "bad", "mixed"])
                kinds.add(kind)
                known = {"empty": 0, "good": full, "bad": full,
                         "mixed": rng.getrandbits(nn)}[kind]
                bad = {"bad": full, "mixed": known & rng.getrandbits(nn)
                       }.get(kind, 0)
                mach.known |= known << (r - m - 1) % n * nn
                mach.bad |= bad << (r - m - 1) % n * nn
            state = n, m, mach.pend, mach.known, mach.bad
            snap = _gen_snapshot.__wrapped__(*state)
            scan = _snapshot_by_scan(mach)
            assert snap["acc"] == scan
            assert all(entry is _entry(*entry) for entry in snap["acc"])
            for r in range(m - n + 2, m + 2):
                at = (r - m - 1) % n * nn
                slot = mach.known >> at & full
                if slot:
                    entries = _slot_entries(n, r, slot, mach.bad >> at & slot)
                    assert list(entries) == [e for e in scan if e[0][2] == r]
                    assert all(e is _entry(*e) for e in entries)
    assert kinds == {"empty", "good", "bad", "mixed"}


@pytest.mark.parametrize("n", range(2, 7))
def test_slot_counts_are_the_popcounts_of_each_subject(n, rng):
    # the cached per-subject counts of a slot, against plain popcounts of
    # every agent's ``about`` masks: the masks are the same for every
    # agent, so one cache serves them all
    full = (1 << n * n) - 1
    for _ in range(100):
        known = rng.choice([0, full, rng.getrandbits(n * n)])
        bad = known & rng.choice([0, full, rng.getrandbits(n * n)])
        got = _slot_counts(n, known, bad)
        for me in range(n):
            about = _gen_masks(n, me)[0]
            assert got == tuple(
                (j, (known & a).bit_count(),
                 (known & a).bit_count() if bad & a else 0)
                for j, a in enumerate(about) if known & a)


def test_sigma_gen_snapshots_are_shared_per_state(rng):
    # random states driven by random rounds: the cached snapshot equals an
    # uncached decode and the scan; a machine of another agent in an equal
    # state gets the same object, whose entries are interned; and no
    # snapshot handed out changes while machines play on
    handed = []
    for n in (2, 3, 4, 5):
        for me in range(n):
            mach = SigmaGen(me, n)
            entries = {}
            for m in range(1, 4 * n + 4):
                view, inbox = _random_gen_round(rng, n, me, m)
                mach.begin_round(view)
                mach.end_round(mach.act(_RecordingRand(m)), inbox)
                snap = mach.snapshot()
                state = n, m, mach.pend, mach.known, mach.bad
                assert snap == _gen_snapshot.__wrapped__(*state)
                assert snap["acc"] == _snapshot_by_scan(mach)
                twin = SigmaGen((me + 1) % n, n)
                twin.round, twin.pend, twin.known, twin.bad = state[1:]
                assert twin.snapshot() is snap
                for entry in snap["pend"] + snap["acc"]:
                    assert entries.setdefault(entry, entry) is entry
                handed.append((snap, copy.deepcopy(snap)))
    assert all(snap == before for snap, before in handed)
    assert any(snap["acc"] for snap, _ in handed)


@pytest.mark.parametrize("n", range(2, 7))
def test_sigma_gen_unary_tallies_match_the_dict_arithmetic(n):
    # exhaustively: the OR of any two tally codes, in any field, decodes to
    # their max, and merges to it from a sender about a third subject; and
    # the rebuild's drain and re-add of any tally by any number of reports,
    # bad or not, equals the flat reference's dict arithmetic, leaving
    # every other tally as it was
    w, me, j = n - 1, 0, 1
    for s in range(n):
        for c in range(n):
            for a in range(n):
                for b in range(n):
                    mach = SigmaGen(me, n)   # relative to round 1
                    mach.pend, _, _ = gen_payload([((s, c), a), ((s, c), b)],
                                                  (), 1, n)
                    want = [((s, c), max(a, b))] if max(a, b) else []
                    assert mach.snapshot()["pend"] == want
                    if s in (me, j) or c == 1:
                        continue
                    mach.pend, _, _ = gen_payload([((s, c), a)], (), 1, n)
                    mach.round = 1
                    mach.end_round({}, {j: (COOPERATE, gen_payload(
                        [((s, c), b)], (), 1, n))})
                    assert mach.snapshot()["pend"] == want
    m = n    # rebuilds residue m+1, field 1, from round 1, slot 1
    c, others = (m + 1) % n, [v for v in range(n) if v != j]
    rest = [((s, r), (s + r) % n) for s in range(n) for r in range(n)
            if s != me and (s, r) != (j, c) and (s + r) % n]
    for old in range(n):
        for deg in range(1, n):
            for bad in range(deg + 1):
                new, ref = SigmaGen(me, n), FlatSigmaGen(me, n)
                # new holds the state relative to round m, as after
                # end_round(m - 1), and its snapshot decodes it so
                new.round, ref.round = m - 1, m
                reports = [((v, j, 1), "bad" if k < bad else "good")
                           for k, v in enumerate(others[:deg])]
                tallies = rest + ([((j, c), old)] if old else [])
                new.pend, new.known, new.bad = gen_payload(tallies, reports, m, n)
                ref.pend, ref.acc = dict(tallies), dict(reports)
                new.pend = _rebuilt(n, me, new.pend, new.known, new.bad)
                ref._rebuild_pend(m)
                assert new.snapshot()["pend"] == sorted(ref.pend.items())
                assert ref.pend.get((j, c), 0) == (max(0, old - deg)
                                                   + (deg if bad else 0))
    # the cached rebuild from every field-1 tally state (one count per
    # subject) and every slot of round 1 (each report absent, good or bad)
    # for n = 3, a seeded sample of them otherwise, against the reference,
    # for agents 0 and 1; twice, with the cache as it was and again after
    # cache_clear(), so no entry cached before can hide a wrong one, and
    # each state is asked twice in a row, the second answer from the cache
    pairs = [(v, s) for v in range(n) for s in range(n) if v != s]
    marks = (None, "good", "bad")
    if n == 3:
        states = itertools.product(itertools.product(range(n), repeat=n),
                                   itertools.product(marks, repeat=len(pairs)))
    else:
        rng = random.Random(n)
        states = [([rng.randrange(n) for _ in range(n)],
                   [rng.choice(marks) for _ in pairs]) for _ in range(500)]
    rest = [((s, r), (s + r) % n) for s in range(n) for r in range(n)
            if r != c and (s + r) % n]
    cases = []
    for counts, slot in states:
        tallies = rest + [((s, c), k) for s, k in enumerate(counts) if k]
        reports = [((v, s, 1), mark) for (v, s), mark in zip(pairs, slot)
                   if mark]
        for agent in (0, 1):
            ref = FlatSigmaGen(agent, n)
            ref.round = m
            ref.pend, ref.acc = dict(tallies), dict(reports)
            ref._rebuild_pend(m)
            cases.append((agent, *gen_payload(tallies, reports, m, n),
                          gen_payload(ref.pend.items(), (), m, n)[0]))
    for clear in (False, True):
        if clear:
            _rebuild_pend.cache_clear()
        for agent, *state, want in cases:
            assert (_rebuilt(n, agent, *state) == _rebuilt(n, agent, *state)
                    == want)


def _rebuilt(n: int, me: int, pend: int, known: int, bad: int) -> int:
    """``pend`` with field 1 rebuilt from slot 1 of ``known`` and ``bad``
    (``_rebuild_pend``), as ``SigmaGen.end_round`` rebuilds it before the
    fields move."""
    nn = n * n
    second, slot = _gen_masks(n, me)[3] << n - 1, (1 << nn) - 1
    return pend & ~second | _rebuild_pend(n, me, pend & second,
                                          known >> nn & slot, bad >> nn & slot)


def test_sigma_gen_payloads_are_isolated(rng):
    # the payload is one tuple of three ints, equal for every neighbour:
    # ints are immutable, so nothing a receiver holds reaches the sender or
    # another receiver, and the sender's next round leaves a sent payload
    # as it was
    n = 4
    sender = SigmaGen(0, n)
    for m in range(1, 4):
        view, inbox = _random_gen_round(rng, n, 0, m)
        sender.begin_round(view)
        sender.end_round(sender.act(_RecordingRand(m)), inbox)
    sender.begin_round(LocalView(0, 4, frozenset({1, 2, 3}),
                                 {1: 2, 2: 2, 3: 2}))
    snap = sender.snapshot()
    p1, p2, p3 = (sender.payload_for(j) for j in (1, 2, 3))
    assert type(p1) is tuple and len(p1) == 3
    assert all(type(x) is int for x in p1)
    assert p1 == p2 == p3
    want = _flat_payload(p2, n, 4)
    assert want["acc"]
    _, inbox = _random_gen_round(rng, n, 0, 4)
    sender.end_round(sender.act(_RecordingRand(4)),
                     {j: inbox.get(j, (COOPERATE, None)) for j in (1, 2, 3)})
    assert sender.snapshot() != snap and _flat_payload(p2, n, 4) == want


# ---------------------------------------------------------------------------
# deviation wrappers
# ---------------------------------------------------------------------------

def test_single_evasive_never_triggered_equals_base():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=8)
    honest = build_machines(cfg)
    evasive = build_machines(cfg)
    evasive[0] = single_evasive(evasive[0], j=1, m=50)  # beyond the horizon
    th = _simulate_machines(cfg, honest)
    te = _simulate_machines(cfg, evasive)
    assert th.history.profiles == te.history.profiles


def test_single_evasive_invisible_without_opportunity():
    # bridged-pairs family: agent 0 is never causally influenced by the
    # defected partner, so its whole observation stream is unchanged
    sc = builtin("timely_violation")
    cfg = sc.sim_config(horizon=10)
    honest_log = run_recorded(cfg, build_machines(cfg, honest_only=True))
    machines = build_machines(cfg, honest_only=True)
    machines[1] = single_evasive(machines[1], j=2, m=1)
    evasive_log = run_recorded(cfg, machines)
    assert honest_log[0] == evasive_log[0]
    assert honest_log[2] != evasive_log[2]   # the victim sees the defection
    assert honest_log[3] != evasive_log[3]   # and gossips it onward


def test_single_evasive_detected_with_timely_opportunity():
    cfg = k3_val_cfg(horizon=8)
    machines = build_machines(cfg)
    machines[0] = single_evasive(machines[0], j=1, m=1)
    t = _simulate_machines(cfg, machines)
    assert t.state_log[(2, 2)]["accusations"] == [(0, 1)]
    # punished by both opportunities inside the window
    assert t.history.profiles[1].actions[1].per_neighbor[0].kind is ActionKind.PROP_PUNISH


def test_always_defect_until_zero_is_base():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=6)
    a = build_machines(cfg)
    b = build_machines(cfg)
    b[2] = always_defect_until(b[2], 0)
    assert (_simulate_machines(cfg, a).history.profiles ==
            _simulate_machines(cfg, b).history.profiles)


def test_one_shot_identity_override_is_base():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=8)
    a = build_machines(cfg)
    b = build_machines(cfg)
    b[1] = ScheduledDefector(b[1], {3: {"cooperate": "all"}}, sincere=True)
    assert (_simulate_machines(cfg, a).history.profiles ==
            _simulate_machines(cfg, b).history.profiles)


def test_one_shot_defect_all_raises_tally():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=10)
    machines = build_machines(cfg)
    machines[3] = ScheduledDefector(machines[3], {1: {"defect": "all"}},
                                    sincere=True)
    t = _simulate_machines(cfg, machines)
    pend = dict((tuple(k), v) for k, v in t.state_log[(0, 4)]["pend"])
    assert pend.get((3, 5 % 4), 0) == 2


def test_one_shot_avoid_zero_edge_utility():
    cfg = k3_val_cfg(horizon=4)
    machines = build_machines(cfg)
    machines[0] = ScheduledDefector(machines[0], {2: {"avoid": [1]}},
                                    sincere=True)
    t = _simulate_machines(cfg, machines)
    profile = t.history.profiles[1]
    rg = cfg.graph.at(2)
    u = round_utility(0, profile, rg, cfg.params)
    # edge to 1 contributes zero; edge to 2 is plain cooperation
    assert u == cfg.params.beta - 1 - cfg.params.alpha


def test_one_shot_override_validates_targets():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=4)
    machines = build_machines(cfg)
    # 2 is not a ring nbr of 0
    machines[0] = ScheduledDefector(machines[0], {1: {"defect": [2]}},
                                    sincere=True)
    with pytest.raises(ValueError):
        _simulate_machines(cfg, machines)


def test_scheduled_defector_state_key_is_round_relative():
    # bases with equal keys after rounds 5 and 9, each wrapped with a
    # defection two rounds ahead of it: a wrapper starts at its base's
    # round, so the two wrappers key alike, and three rounds ahead keys
    # apart
    bases = []
    for horizon in (5, 9):
        cfg = builtin("ring_connectivity").sim_config(horizon=horizon)
        machines = build_machines(cfg)
        _simulate_machines(cfg, machines)
        bases.append(machines[0])
    b5, b9 = bases
    assert (b5.round, b9.round) == (5, 9)
    assert b5.state_key() == b9.state_key()
    key = ScheduledDefector(b5, {7: ALL_NEIGHBORS}).state_key()
    assert key == ScheduledDefector(b9, {11: ALL_NEIGHBORS}).state_key()
    assert key != ScheduledDefector(b9, {12: ALL_NEIGHBORS}).state_key()


def test_pending_scheduled_defectors_key_template_and_offset():
    # before its last round a wrapper's key carries what is still ahead:
    # another template, round offset or sincerity is another key, and the
    # shorthand is the same template as {"defect": targets}
    cfg = builtin("ring_connectivity").sim_config(horizon=4)
    m = build_machines(cfg)[0]

    def key(schedule, sincere=True):
        return ScheduledDefector(m.clone(), schedule, sincere).state_key()
    assert key({3: [3, 1]}) == key({3: {"defect": [1, 3]}})
    keys = [key({3: ALL_NEIGHBORS}), key({4: ALL_NEIGHBORS}),
            key({3: ALL_NEIGHBORS}, sincere=False), key({3: [1]}),
            key({3: {"send": [1]}}), key({3: {"avoid": [1]}}),
            key({3: {"prop_punish": {1: 1}}}), key({3: {"prop_punish": {1: 2}}}),
            key({3: ALL_NEIGHBORS, 5: [1]}), m.state_key()]
    assert len(set(keys)) == len(keys)


def test_persona_state_key_is_round_relative():
    # a persona keys what is still ahead relative to its round: its scripted
    # defection's target and offset, and its shadow world's machine keys
    # after that round, with its label and audience.  On the constant
    # 4-ring, where the honest shadow world keys alike every round,
    # personas two rounds before their defection key alike after rounds 3
    # and 6; a later defection, another target, audience, label or shadow
    # world keys apart, and once its defection has played a persona keys
    # as one with none
    from dynacct.protocols import _honest
    sc = builtin("ring_connectivity")

    def persona(played, defection=(1, 5), audience=(1, 3), label="p",
                defector=None):
        cfg = sc.sim_config(horizon=played)
        shadow = {a: _honest(cfg, a) for a in range(4)}
        if defector is not None:
            shadow[defector] = always_defect_until(shadow[defector], 20)
        machines = build_machines(cfg, honest_only=True)
        machines[0] = _Persona(
            _honest(cfg, 0), _ShadowWorld(cfg.graph, cfg.family.observation,
                                          shadow),
            frozenset(audience), label, defection)
        _simulate_machines(cfg, machines)
        return machines[0]
    key = persona(3).state_key()
    assert key == persona(6, defection=(1, 8)).state_key()
    others = [persona(3, defection=(1, 6)), persona(3, defection=(3, 5)),
              persona(3, audience=(1,)), persona(3, label="q"),
              persona(3, defector=2)]
    others = [p.state_key() for p in others]
    assert key not in others and len(set(others)) == len(others)
    for played, spent in ((4, False), (5, True)):
        p = persona(played)
        unscripted = _Persona(p.base, p.shadow, p.audience, p.label)
        assert (unscripted.state_key() == p.state_key()) is spent


@pytest.mark.parametrize("schedule", [{2: ALL_NEIGHBORS},
                                      {2: {"send": [1], "defect": [3]}}],
                         ids=["shorthand", "template"])
def test_spent_scheduled_defector_keys_as_its_base(schedule):
    # once its schedule is spent a wrapper is replaced by its base, which
    # played the deviation sincerely: what keys in its place is the base
    cfg = builtin("ring_connectivity").sim_config(horizon=6)
    machines = build_machines(cfg)
    machines[0] = ScheduledDefector(machines[0], schedule, sincere=True)
    d = machines[0]
    assert d.state_key() != d.base.state_key()
    _simulate_machines(cfg, machines)
    assert machines[0] is d.base
    assert d.base.state_key() != build_machines(cfg)[0].state_key()


def test_delivery_retires_a_wrapper_after_its_last_scheduled_round():
    # the one delivery step puts a ScheduledDefector's base back right
    # after its last scheduled round, and only then
    cfg = builtin("ring_connectivity").sim_config(horizon=6)
    machines = build_machines(cfg)
    base = machines[0]
    machines[0] = ScheduledDefector(base, {1: ALL_NEIGHBORS}, sincere=True)
    _simulate_machines(cfg, machines, stop=lambda m, _: m > 1)
    assert machines[0] is base

    machines = build_machines(cfg)
    d = machines[1] = defect_at_rounds(machines[1], [2, 4])
    in_place = []

    def watch(m, ms):
        in_place.append(ms[1] is d)
        return False
    _simulate_machines(cfg, machines, stop=watch)
    assert in_place == [True] * 4 + [False] * 2      # rounds 1..6
    assert machines[1] is d.base

    # stacked wrappers spent in the same round retire together
    machines = build_machines(cfg)
    base = machines[2]
    machines[2] = ScheduledDefector(defect_at_rounds(base, [1]), {2: [1]})
    _simulate_machines(cfg, machines, stop=lambda m, _: m > 2)
    assert machines[2] is base


@pytest.mark.parametrize("first_round", [1, 3])
def test_personas_stay_and_their_shadow_deviator_retires(first_round):
    # a persona is never retired; the lenient shadow world's first
    # deviator is, right after its first_round, and the world's quiescent
    # agents are those it had while the wrapper played to the horizon
    sc = builtin("unsafe_three_agent")
    cfg = sc.sim_config(horizon=8)
    spec = dict({k: v for k, v in sc.candidates[0].items() if k != "agent"},
                first_round=first_round)
    persona = build_deviation(spec, cfg, 2)
    machines = build_machines(cfg, honest_only=True)
    machines[2] = persona
    shadow, wrapped = persona.shadow, []

    def watch(m, ms):
        wrapped.append(isinstance(shadow.machines[0], ScheduledDefector))
        return False
    _simulate_machines(cfg, machines, stop=watch)
    assert machines[2] is persona
    # the world has played rounds 1..m-1 when round m starts
    assert wrapped == [True] * first_round + [False] * (8 - first_round)
    assert {m: sorted(q) for m, q in shadow.quiescent.items()} == {
        0: [1, 2], 1: [], 2: [], 3: [], 4: [1], 5: [1],
        6: [0, 1, 2], 7: [0, 1, 2], 8: [0, 1, 2]}


def test_scheduled_target_not_a_neighbour_is_refused():
    # a scheduled target that is not a current neighbour is refused, not
    # dropped: 2 is not a ring neighbour of 0
    cfg = builtin("ring_connectivity").sim_config(horizon=4)
    machines = build_machines(cfg)
    machines[0] = ScheduledDefector(machines[0], {1: [2]})
    with pytest.raises(ValueError,
                       match="override target 2 is not a current neighbour"):
        _simulate_machines(cfg, machines)


def test_apply_override_send_keeps_a_sending_action():
    # "send" keeps a sending prescription (a punishment stays one) and
    # cooperates where the prescription defects or avoids
    from dynacct.protocols import _template, apply_override
    send = _template({"send": ALL_NEIGHBORS})
    general = {1: PUNISH, 2: DEFECT, 3: COOPERATE}
    assert apply_override(send, frozenset(general), general) == {
        1: PUNISH, 2: COOPERATE, 3: COOPERATE}
    valuable = {1: AVOID, 2: prop_punish(2), 3: DEFECT}
    assert apply_override(send, frozenset(valuable), valuable) == {
        1: COOPERATE, 2: prop_punish(2), 3: COOPERATE}


@pytest.mark.parametrize("spec, message", [
    ({"strategy": "sigma_val", "rho": [3]}, "rho must be an integer"),
    ({"deviation": {"kind": "single_evasive", "target": [2], "round": 1}},
     "target must be an integer"),
    ({"deviation": {"kind": "defect_at_rounds", "rounds": 5}},
     "rounds must be a list of integers"),
    ({"deviation": {"kind": "one_shot", "round": 1, "override": ["all"]}},
     "override must be an object"),
    ({"deviation": {"kind": "one_shot", "round": 1,
                    "override": {"prop_punish": {"x": 1}}}},
     "prop_punish must be an integer"),
    ({"strategy": "sigma_val", "rho": 2.9}, "rho must be an integer"),
    ({"strategy": "sigma_val", "rho": True}, "rho must be an integer"),
    ({"deviation": {"kind": "single_evasive", "target": 1, "round": True}},
     "round must be an integer"),
    ({"deviation": {"kind": "defect_at_rounds", "rounds": [1, 2.0]}},
     "rounds must be a list of integers"),
    ({"deviation": {"kind": "defect_at_rounds", "rounds": "12"}},
     "rounds must be a list of integers"),
    ({"deviation": {"kind": "one_shot", "round": 1,
                    "override": {"defekt": "all"}}},
     "unknown override class 'defekt'"),
    ({"deviation": {"kind": "single_evasive", "target": 1, "round": 0}},
     "round must be at least 1, not 0"),
    ({"deviation": {"kind": "single_evasive", "target": 1, "round": -1}},
     "round must be at least 1, not -1"),
    ({"deviation": {"kind": "always_defect_until", "round": 0}},
     "round must be at least 1, not 0"),
    ({"deviation": {"kind": "defect_at_rounds", "rounds": [2, 0]}},
     "rounds must be at least 1, not 0"),
    ({"deviation": {"kind": "lenient_evasive_unsafe", "first_round": 0}},
     "first_round must be at least 1, not 0"),
], ids=["rho-list", "target-list", "rounds-int", "override-list",
        "prop-punish-target", "rho-float", "rho-bool", "round-bool",
        "rounds-float", "rounds-str", "override-class-typo", "round-zero",
        "round-negative", "until-round-zero", "rounds-zero",
        "first-round-zero"])
def test_spec_field_of_the_wrong_type_is_refused(spec, message):
    # a list, a bool or a float is no integer, and a string no list: the
    # spec field is named, not a TypeError raised, and no value is
    # truncated, read as 1 or split into digits.  An override class that
    # is none of the classes, or a round before round 1, is refused too,
    # not run as no deviation
    cfg = k3_val_cfg(horizon=4)
    with pytest.raises(StrategyConfigError, match=message):
        build_strategy(spec, cfg, 0)


def _machine_classes(cls) -> list:
    """Every class of the package below ``cls``."""
    out = []
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("dynacct."):
            out += [sub, *_machine_classes(sub)]
    return out


def test_every_machine_keys_its_state():
    # state_key is part of the machine contract, as act is: the base class
    # gives no key, every class of the package that acts keys its own
    # state, and every builtin's honest and candidate machines give
    # hashable keys
    with pytest.raises(NotImplementedError):
        StrategyMachine(0, 2).state_key()
    acting = [cls for cls in _machine_classes(StrategyMachine)
              if "act" in vars(cls)]
    assert len(acting) >= 7
    for cls in acting:
        assert cls.state_key is not StrategyMachine.state_key, cls
    machines, candidates = [], 0
    for name in sorted(BUILTIN_SCENARIOS):
        sc = builtin(name)
        for g in sc.family.members:
            sc.member = g.name
            cfg = sc.sim_config(horizon=8)
            machines += build_machines(cfg, honest_only=True).values()
            for c in sc.candidates:
                if c.get("member") in (None, g.name):
                    spec = {k: v for k, v in c.items() if k != "agent"}
                    machines.append(build_deviation(spec, cfg, c["agent"]))
                    candidates += 1
    assert candidates >= 3
    for mach in machines:
        hash(mach.state_key())


# ---------------------------------------------------------------------------
# scripted dual and lenient evasive strategies
# ---------------------------------------------------------------------------

def _dual_machines(cfg, sc):
    from dynacct.protocols import build_deviation
    machines = build_machines(cfg, honest_only=True)
    spec = {k: v for k, v in sc.candidates[0].items() if k != "agent"}
    machines[0] = build_deviation(spec, cfg, 0)
    return machines


def test_dual_evasive_hides_from_far_side():
    sc = builtin("fig2_ambiguous")
    cfg = sc.sim_config(horizon=11)
    honest_log = run_recorded(cfg, build_machines(cfg, honest_only=True))
    dual_log = run_recorded(cfg, _dual_machines(cfg, sc))
    for a in (3, 4):
        assert honest_log[a] == dual_log[a]
    assert honest_log[1] != dual_log[1]
    assert honest_log[2] != dual_log[2]


def test_dual_evasive_near_side_punishes_far_side_does_not():
    sc = builtin("fig2_ambiguous")
    cfg = sc.sim_config(horizon=11)
    t = _simulate_machines(cfg, _dual_machines(cfg, sc))
    punishers = {(m, j) for m in range(1, 12) for j in range(1, 5)
                 if 0 in t.history.profiles[m - 1].actions[j].per_neighbor
                 and t.history.profiles[m - 1].actions[j].per_neighbor[0].kind
                 is ActionKind.PUNISH}
    assert punishers and all(j in (1, 2) for (_, j) in punishers)


def test_dual_evasive_unfired_script_is_honest():
    from dynacct.protocols import _honest, _Persona, _ShadowWorld
    sc = builtin("fig2_ambiguous")
    cfg = sc.sim_config(horizon=9)
    machines = build_machines(cfg, honest_only=True)
    shadow = _ShadowWorld(cfg.graph, cfg.family.observation,
                          {a: _honest(cfg, a) for a in range(5)})
    machines[0] = _Persona(_honest(cfg, 0), shadow, frozenset([3, 4]),
                           "dual_evasive", defection=(1, 0))
    th = _simulate_machines(cfg, build_machines(cfg, honest_only=True))
    td = _simulate_machines(cfg, machines)
    assert th.history.profiles == td.history.profiles


def test_dual_evasive_shadow_replays_the_configured_bases():
    # agent 3 is configured as a deviation: the shadow world replays its
    # base, the honest profile, while the configured run plays the deviation
    from dynacct.protocols import build_deviation
    sc = builtin("fig2_ambiguous")
    sc.strategies[3] = {"deviation": {"kind": "always_defect_until",
                                      "round": 9, "base": sc.strategies[3]}}
    cfg = sc.sim_config(horizon=9)
    spec = {k: v for k, v in sc.candidates[0].items() if k != "agent"}
    dual = build_deviation(spec, cfg, 0)
    dual.shadow.ensure_round(cfg.horizon)
    honest = _simulate_machines(cfg, build_machines(cfg, honest_only=True))
    for m, profile in enumerate(honest.history.profiles, 1):
        assert dual.shadow.round_actions[m] == {
            a: act.per_neighbor for a, act in profile.actions.items()}
    configured = simulate(cfg).history.profiles
    assert any(a.kind is ActionKind.DEFECT
               for p in configured for a in p.actions[3].per_neighbor.values())


@pytest.mark.parametrize("layers", ["persona", "evasive_over_persona",
                                    "persona_over_persona"])
def test_delivery_asks_each_sender_once_and_a_persona_per_shadowed(layers):
    # a persona shows agents 3 and 4 the payload of a shadow world in which
    # agent 1 always defects, alone, under a single evasive defection that
    # stays in place until round 7, or under a second persona that shows
    # agent 2 a world in which agent 3 always defects: every inbox holds
    # what asking each sender for each neighbour's payload gives, though a
    # sender is asked once a round and once more per shadowed agent
    from dynacct.protocols import _honest
    sc = builtin("fig2_ambiguous")
    cfg = sc.sim_config(horizon=11)
    ms = build_machines(cfg, honest_only=True)

    def persona(base, defector, audience):
        shadow = {a: _honest(cfg, a) for a in range(5)}
        shadow[defector] = always_defect_until(shadow[defector], cfg.horizon)
        return _Persona(base, _ShadowWorld(cfg.graph, cfg.family.observation,
                                           shadow), frozenset(audience), "p")
    ms[0] = persona(_honest(cfg, 0), 1, [3, 4])
    if layers == "evasive_over_persona":
        target = min(cfg.graph.at(7).neighbors(0))
        ms[0] = single_evasive(ms[0], j=target, m=7)
    elif layers == "persona_over_persona":
        ms[0] = persona(ms[0], 3, [2])
    audience = {"persona_over_persona": [2, 3, 4]}.get(layers, [3, 4])
    assert ms[0].shadowed == frozenset(audience)
    draws, hidden = _HashDraws(cfg.seed), set()
    for m in range(1, cfg.horizon + 1):
        views = _begin_round(cfg, ms, m)
        acts = _act(ms, draws)
        want = {i: {j: (acts[j][i], None if acts[j][i].kind is ActionKind.DEFECT
                        else ms[j].payload_for(i)) for j in views[i].order}
                for i in ms}
        hidden |= {a for a in audience
                   if ms[0].payload_for(a) != ms[0].payload_for(1)}
        asked, inboxes, patched = dict.fromkeys(ms, 0), {}, list(ms.values())
        for a, mach in ms.items():
            payload_for, end_round = mach.payload_for, mach.end_round

            def ask(j, a=a, payload_for=payload_for):
                asked[a] += 1
                return payload_for(j)

            def end(own, inbox, a=a, end_round=end_round):
                inboxes[a] = dict(inbox)
                end_round(own, inbox)
            mach.payload_for, mach.end_round = ask, end
        wrapped = isinstance(ms[0], ScheduledDefector)
        _deliver(views, ms, acts)
        for mach in patched:
            del mach.payload_for, mach.end_round
        assert inboxes == want
        assert asked == {a: 1 + len(audience) if a == 0 else 1 for a in ms}
        if layers == "evasive_over_persona":
            assert wrapped == (m <= 7)
    assert hidden == set(audience)   # each was shown another payload


def test_dual_evasive_wrong_member_refused():
    sc = builtin("fig2_ambiguous")
    sc.member = "G"   # scripted against Gp's round-2 topology
    cfg = sc.sim_config(horizon=9)
    with pytest.raises(StrategyConfigError):
        _simulate_machines(cfg, _dual_machines(cfg, sc))


@pytest.mark.parametrize("group1, group2", [([1, 2], [2, 3, 4]),   # overlap
                                            ([1, 2], [3])])         # 4 in none
def test_dual_evasive_groups_must_partition_the_others(group1, group2):
    from dynacct.protocols import build_deviation
    sc = builtin("fig2_ambiguous")
    cfg = sc.sim_config(horizon=9)
    spec = {k: v for k, v in sc.candidates[0].items() if k != "agent"}
    build_deviation(spec, cfg, 0)   # the builtin split loads
    with pytest.raises(StrategyConfigError, match="partition"):
        build_deviation(dict(spec, group1=group1, group2=group2), cfg, 0)


def _unsafe_runs(lenient: bool):
    from dynacct.protocols import build_deviation
    sc = builtin("unsafe_three_agent")
    cfg = sc.sim_config(horizon=12)
    machines = build_machines(cfg, honest_only=True)
    machines[0] = always_defect_until(machines[0], 1)
    machines[1] = ScheduledDefector(machines[1], {2: frozenset([2])},
                                    sincere=False)
    if lenient:
        spec = {k: v for k, v in sc.candidates[0].items() if k != "agent"}
        machines[2] = build_deviation(spec, cfg, 2)
    return cfg, _simulate_machines(cfg, machines)


def test_lenient_evasive_defects_and_escapes_punishment():
    cfg, t = _unsafe_runs(lenient=True)
    assert t.history.profiles[2].actions[2].per_neighbor[0].kind is ActionKind.DEFECT
    for m in range(4, 13):
        profile = t.history.profiles[m - 1]
        for j in (0, 1):
            if 2 in profile.actions[j].per_neighbor:
                assert profile.actions[j].per_neighbor[2].kind is ActionKind.COOPERATE


def test_lenient_evasive_strictly_beats_prescribed():
    from dynacct.game_core import discounted_utility
    cfg, t_honest = _unsafe_runs(lenient=False)
    _, t_lenient = _unsafe_runs(lenient=True)
    assert t_honest.history.profiles[2].actions[2].per_neighbor[0].kind \
        is ActionKind.COOPERATE
    gain = (discounted_utility(t_lenient, 2, 1, cfg.params)
            - discounted_utility(t_honest, 2, 1, cfg.params))
    assert gain == cfg.params.delta ** 2


def test_lenient_evasive_clean_shadow_is_honest():
    from dynacct.protocols import _honest, _Persona, _ShadowWorld
    sc = builtin("unsafe_three_agent")
    cfg = sc.sim_config(horizon=10)
    shadow = _ShadowWorld(cfg.graph, cfg.family.observation,
                          {a: _honest(cfg, a) for a in range(3)})
    machines = build_machines(cfg, honest_only=True)
    machines[2] = _Persona(_honest(cfg, 2), shadow, frozenset([0, 1]),
                           "lenient_evasive")
    th = _simulate_machines(cfg, build_machines(cfg, honest_only=True))
    tl = _simulate_machines(cfg, machines)
    assert th.history.profiles == tl.history.profiles


# ---------------------------------------------------------------------------
# cloning
# ---------------------------------------------------------------------------

def _held(mach: StrategyMachine):
    """``mach`` and every machine it holds: a wrapper's base and the
    profile of a persona's shadow world, recursively."""
    yield mach
    for value in vars(mach).values():
        if isinstance(value, StrategyMachine):
            yield from _held(value)
        elif isinstance(value, _ShadowWorld):
            for inner in value.machines.values():
                yield from _held(inner)


def _builtin_profiles():
    """On every builtin member, its configured profile and, per candidate,
    the honest profile with the candidate's machine, as ``dynacct verify``
    builds them."""
    for name in sorted(BUILTIN_SCENARIOS):
        sc = builtin(name)
        for g in sc.family.members:
            sc.member = g.name
            cfg = sc.sim_config()
            yield cfg, build_machines(cfg)
            for c in sc.candidates:
                if c.get("member") in (None, g.name):
                    machines = build_machines(cfg, honest_only=True)
                    machines[c["agent"]] = build_deviation(
                        {k: v for k, v in c.items() if k != "agent"}, cfg,
                        c["agent"])
                    yield cfg, machines


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 12))
def test_default_clone_is_copy_copy(rounds):
    # after any number of rounds, the default clone of every machine the
    # builtins build, and of every machine those hold, is a new instance of
    # its class whose attributes are copy.copy's, the very same objects
    seen = set()
    for cfg, machines in _builtin_profiles():
        _simulate_machines(cfg, machines, stop=lambda m, _: m > rounds)
        for mach in (m for top in machines.values() for m in _held(top)):
            cloned, copied = StrategyMachine.clone(mach), copy.copy(mach)
            assert type(cloned) is type(mach) and cloned is not mach
            assert list(vars(cloned)) == list(vars(copied))
            assert all(vars(cloned)[k] is v for k, v in vars(copied).items())
            seen.add(type(mach))
    # every builtin deviation's schedule ends at round 1, after which
    # the wrapper is retired
    assert seen == {AccusationPunisher, SigmaGen, SigmaVal,
                    UnsafePunisherProtocol, _Persona} | (
                        {ScheduledDefector} if rounds == 0 else set())


def test_no_machine_class_customises_copying():
    # the default clone copies the instance dict, which is copy.copy only
    # for a class with none of these hooks: so no machine class, in the
    # package or in the tests, may define one
    hooks = {"__slots__", "__copy__", "__reduce__", "__reduce_ex__",
             "__getstate__", "__setstate__"}
    classes, todo = [], [StrategyMachine]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    assert {FlatSigmaGen, Recorder, _Persona, UnsafePunisherProtocol,
            AlwaysDefect} <= set(classes)
    assert {cls.__qualname__: sorted(hooks & set(vars(cls)))
            for cls in classes if hooks & set(vars(cls))} == {}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_build_strategy_unknown_name():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=4)
    with pytest.raises(StrategyConfigError):
        build_strategy("sigma_mystery", cfg, 0)


def test_mode_mismatch_rejected():
    ring = ring_graph(4)
    fam = fam_const(ring, obs=ND)
    cfg = SimConfig(family=fam, member="g",
                    strategies={a: {"strategy": "sigma_val", "rho": 2}
                                for a in range(4)},
                    horizon=4, params=general_defaults())
    with pytest.raises(StrategyConfigError):
        build_machines(cfg)


def test_windows_of_one_run_may_differ_in_rho():
    # windows of 1..4 rounds, spelt as a string or a mapping, with two
    # deviators: each receiver keeps what its own rho covers, so the run
    # plays, acts and logs as the set reference does
    cfg = SimConfig(
        family=fam_const(complete_graph(4), obs=NO), member="g",
        strategies={0: "unsafe_scripted",
                    1: {"strategy": "unsafe_scripted", "rho": 1},
                    2: {"strategy": "accusation_punisher", "rho": 4},
                    3: {"strategy": "accusation_punisher", "rho": 2}},
        horizon=9, params=general_defaults())
    sets = {UnsafePunisherProtocol: SetUnsafePunisher,
            AccusationPunisher: SetAccusationPunisher}
    schedule = {0: {1: frozenset([1, 2]), 4: frozenset([3])},
                3: {2: frozenset([0, 1])}}
    runs = []
    for packed in (True, False):
        machines = build_machines(cfg)
        if not packed:
            machines = {a: sets[type(m)](a, 4, m.rho)
                        for a, m in machines.items()}
        assert sorted(m.rho for m in machines.values()) == [1, 2, 3, 4]
        for a, rounds in schedule.items():
            machines[a] = ScheduledDefector(machines[a], rounds, sincere=True)
        t = _simulate_machines(cfg, machines)
        runs.append(([p.acts for p in t.history.profiles], t.state_log))
    assert runs[0] == runs[1]
    assert any(log["accusations"] for log in runs[0][1].values())
