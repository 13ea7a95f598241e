"""Simulator and verification harness for accountability protocols on
adversarially dynamic networks."""

from .evolving_graph import (EvolvingGraph, FamilyVerdict, GraphFamily,
                             LocalView, ObservationModel, RoundGraph,
                             check_connectivity_restriction,
                             check_eventual_distinguishability,
                             check_timely_punishments, indistinguishable_at,
                             is_ambiguous_po, is_indistinguishable_round,
                             is_unsafe, load_family, local_view, po_set,
                             punishment_opportunities, timely_certificate)
from .game_core import (Action, ActionProfile, History, IndividualAction, Mode,
                        Trace, UtilityParams, discounted_utility, round_utility,
                        tail_bound)
from .protocols import (AccusationPunisher, SigmaGen, SigmaVal, StrategyMachine,
                        always_defect_until, sigma_gen, sigma_val,
                        single_evasive)
from .scenarios import BUILTIN_SCENARIOS, Scenario, builtin, load_scenario
from .verifier import (EquilibriumReport, FactReport, SimConfig,
                       assert_gen_facts, expected_punishments, expected_utility,
                       monte_carlo_utilities, run_paired_defection,
                       simulate, verify_one_shot)

__version__ = "0.1.0"
