"""Command-line entry point.

Subcommands:
  check      run a family checker (timely | connectivity | eventual_dist |
             ambiguous_po | unsafe) and print the verdict as JSON
  simulate   run one seeded simulation, write a JSONL trace and a CSV
             utility matrix, print per-agent discounted totals
  verify     on-path cooperation check plus one-shot-deviation verification
             for every agent, including a scenario's deviation candidates
  scenarios  list the builtin scenarios

Exit status contract: 0 pass, 1 fail with witness, 2 input error,
3 enumeration refusal.  Commands raise; ``main`` alone maps what they
raise to an exit status.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from typing import Optional

from . import evolving_graph as eg
from .facts import check_deviation_round
from .game_core import discounted_utility
from .scenarios import resolve_scenario, scenario_catalog
from .verifier import (EnumerationCapExceeded, monte_carlo_utilities, simulate,
                       verify_cooperation, verify_one_shot)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3


def _emit(doc, out: Optional[str] = None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: the result stands, and what is still
        # buffered goes to devnull rather than failing again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_check(args) -> int:
    family = eg.load_family(args.family)
    member = family.member(args.member) if args.member else family.members[0]
    if args.check == "timely":
        if args.rho is not None:
            verdict = eg.check_timely_punishments(family, args.rho)
        else:
            rho = eg.timely_certificate(family)
            if rho is None:
                verdict = eg.FamilyVerdict(
                    holds=False,
                    counterexample={"reason": "no rho in [1, horizon] works"})
            else:
                verdict = eg.FamilyVerdict(holds=True, certificate=rho)
    elif args.check == "connectivity":
        verdict = eg.check_connectivity_restriction(family)
    elif args.check == "eventual_dist":
        if args.rho is None:
            raise ValueError("eventual_dist needs --rho")
        verdict = eg.check_eventual_distinguishability(
            family, args.rho, args.m_star)
    elif args.check == "ambiguous_po":
        if None in (args.agent, args.partner, args.round):
            raise ValueError("ambiguous_po needs --agent, --partner, --round")
        w = eg.is_ambiguous_po(family, member, args.agent, args.partner,
                               args.round)
        if w is None:
            verdict = eg.FamilyVerdict(holds=True)
        else:
            cand, (n1, n2) = w
            verdict = eg.FamilyVerdict(
                holds=False,
                counterexample={"member": cand.name,
                                "partition": [sorted(n1), sorted(n2)]})
    else:  # unsafe
        if args.rho is None:
            raise ValueError("unsafe needs --rho")
        w = eg.is_unsafe(member, args.rho, family.horizon)
        verdict = (eg.FamilyVerdict(holds=True) if w is None
                   else eg.FamilyVerdict(holds=False, counterexample=w))
    _emit(verdict.to_json(), args.out)
    return EXIT_PASS if verdict.holds else EXIT_FAIL


def _parse_deviate(text: str, n: int) -> tuple[int, dict]:
    """--deviate 'agent=0,defect_all,round=1' -> (agent, one-shot defect-all
    deviation) for an agent of an n-agent scenario.  A field it does not
    know, one given twice, a value on ``defect_all`` and an ``agent`` or
    ``round`` that is not an integer are refused, naming the field."""
    fields = {}
    for kv in text.split(","):
        key, sep, value = kv.partition("=")
        if key not in ("agent", "round", "defect_all"):
            raise ValueError(f"--deviate has no field {key!r}")
        if key in fields:
            raise ValueError(f"--deviate gives the field {key!r} twice")
        if key == "defect_all" and sep:
            raise ValueError(f"--deviate field 'defect_all' takes no value, "
                             f"not {value!r}")
        fields[key] = value
    if "agent" not in fields or "round" not in fields:
        raise ValueError("--deviate needs agent=<id> and round=<m>")
    if "defect_all" not in fields:
        raise ValueError("--deviate currently supports the defect_all form")
    ints = {}
    for key in ("agent", "round"):
        try:
            ints[key] = int(fields[key])
        except ValueError:
            raise ValueError(f"--deviate field {key!r} needs an integer, "
                             f"not {fields[key]!r}") from None
    agent = ints["agent"]
    if not 0 <= agent < n:
        raise ValueError(f"--deviate agent {agent} is not an id in 0..{n - 1}")
    return agent, {"kind": "one_shot", "round": ints["round"],
                   "override": {"defect": "all"}}


def cmd_simulate(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be >= 1")
    scenario = resolve_scenario(args.scenario)
    if args.deviate:
        agent, dev = _parse_deviate(args.deviate, scenario.family.n)
        base = scenario.strategies[agent]
        scenario.strategies[agent] = {"deviation": dict(dev, base=base)}
    scenario.validate()
    cfg = scenario.sim_config(horizon=args.horizon, seed=args.seed)
    if args.deviate:
        check_deviation_round(cfg, dev["round"])
    trace = simulate(cfg)
    out = args.out or f"{scenario.name}_trace"
    _write_trace(trace, cfg, out, args.format)
    totals = {i: discounted_utility(trace, i, 1, cfg.params)
              for i in range(cfg.family.n)}
    summary = {
        "scenario": scenario.name,
        "member": cfg.member,
        "seed": cfg.seed,
        "rounds": trace.last_round,
        "discounted_utility": {str(i): [str(v), float(v)]
                               for i, v in sorted(totals.items())},
    }
    if args.format in ("json", "both"):
        summary["trace"] = out + ".jsonl"
    if args.format in ("csv", "both"):
        summary["csv"] = out + ".csv"
    if args.samples:
        summary["monte_carlo"] = {
            str(i): {"samples": args.samples, "mean": float(mean),
                     "std_error": se}
            for i, (mean, se) in monte_carlo_utilities(cfg, args.samples).items()}
    _emit(summary)
    return EXIT_PASS


def _write_trace(trace, cfg, out: str, fmt: str):
    n = cfg.family.n
    if fmt in ("json", "both"):
        with open(out + ".jsonl", "w", encoding="utf-8") as fh:
            for m in range(1, trace.last_round + 1):
                profile = trace.history.profiles[m - 1]
                rec = {
                    "round": m,
                    "actions": {
                        str(i): {str(j): _action_json(a)
                                 for j, a in sorted(profile.acts[i].items())}
                        for i in sorted(profile.acts)},
                    "utilities": {str(i): str(trace.utility(i, m))
                                  for i in range(n)},
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    if fmt in ("csv", "both"):
        with open(out + ".csv", "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["round"] + [f"agent{i}" for i in range(n)])
            for m in range(1, trace.last_round + 1):
                w.writerow([m] + [str(trace.utility(i, m)) for i in range(n)])


def _action_json(a) -> str:
    if a.kind.value == "prop_punish":
        return f"prop_punish({a.c})"
    return a.kind.value


def cmd_verify(args) -> int:
    scenario = resolve_scenario(args.scenario)
    scenario.validate()
    members = ([scenario.family.member(args.member).name] if args.member
               else [g.name for g in scenario.family.members])
    all_pass = True
    by_member = {}
    for member in members:
        scenario.member = member
        cfg = scenario.sim_config(horizon=args.horizon)
        if args.enum_cap is not None:
            cfg = replace(cfg, enum_cap=args.enum_cap)
        coop_ok, coop_witness = verify_cooperation(cfg)
        reports = {}
        member_pass = coop_ok
        for i in range(cfg.family.n):
            cands = [{k: v for k, v in c.items() if k != "agent"}
                     for c in scenario.candidates
                     if c.get("agent") == i
                     and c.get("member") in (None, member)]
            rep = verify_one_shot(cfg, i, robust_depth=args.robust_depth,
                                  candidates=cands)
            reports[str(i)] = rep.to_json()
            member_pass = member_pass and rep.verdict
        by_member[member] = {
            "on_path_cooperation": coop_ok,
            "on_path_witness": coop_witness,
            "one_shot": reports,
            "verdict": "pass" if member_pass else "fail",
        }
        all_pass = all_pass and member_pass
    doc = {
        "scenario": scenario.name,
        "members": by_member,
        "one_shot": by_member[members[0]]["one_shot"],
        "on_path_cooperation": all(m["on_path_cooperation"]
                                   for m in by_member.values()),
        "verdict": "pass" if all_pass else "fail",
    }
    _emit(doc, args.out)
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_scenarios(args) -> int:
    _emit(scenario_catalog())
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dynacct",
        description="simulator and verifier for accountability protocols "
                    "on adversarially dynamic networks")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="run a family checker")
    c.add_argument("check", choices=["timely", "connectivity", "eventual_dist",
                                     "ambiguous_po", "unsafe"])
    c.add_argument("--family", required=True, help="family JSON file")
    c.add_argument("--rho", type=int, default=None)
    c.add_argument("--m-star", type=int, default=0)
    c.add_argument("--member", default=None)
    c.add_argument("--agent", type=int, default=None)
    c.add_argument("--partner", type=int, default=None)
    c.add_argument("--round", type=int, default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("simulate", help="run one seeded simulation")
    s.add_argument("--scenario", required=True,
                   help="builtin name or scenario JSON file")
    s.add_argument("--horizon", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--deviate", default=None,
                   help="e.g. 'agent=0,defect_all,round=1'")
    s.add_argument("--samples", type=int, default=None,
                   help="also report Monte Carlo utility over N seeded runs")
    s.add_argument("--out", default=None, help="output path stem")
    s.add_argument("--format", choices=["json", "csv", "both"], default="both")
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="equilibrium verification")
    v.add_argument("--scenario", required=True)
    v.add_argument("--horizon", type=int, default=None)
    v.add_argument("--robust-depth", type=int, default=2)
    v.add_argument("--member", default=None,
                   help="verify one member instead of every member")
    v.add_argument("--enum-cap", type=int, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    l = sub.add_parser("scenarios", help="list builtin scenarios")
    l.set_defaults(func=cmd_scenarios)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_REFUSED
    # FamilyFormatError and StrategyConfigError are ValueErrors; str() of a
    # KeyError quotes its message
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
