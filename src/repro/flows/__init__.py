"""Flow identifiers, wildcard rules, policies, and traffic models.

This subpackage provides the vocabulary shared by the analytic Markov
models (:mod:`repro.core`) and the discrete-event network simulator
(:mod:`repro.simulator`):

* :mod:`repro.flows.flowid` -- 5-tuple flow identifiers and IPv4 helpers.
* :mod:`repro.flows.rules` -- concrete OpenFlow-style match rules with
  value/mask wildcards, priorities, and timeouts.
* :mod:`repro.flows.policy` -- abstract policies: rules viewed purely as
  sets of flow identifiers with a priority total order, as in Section IV
  of the paper.
* :mod:`repro.flows.universe` -- the finite flow universe with Poisson
  rates known (or estimated) by the attacker.
* :mod:`repro.flows.arrival` -- Poisson arrival schedule generation.
* :mod:`repro.flows.config` -- the Section VI-A "network configuration"
  generator (random rules, rates, TTLs, and target flow).
"""

from repro.flows.flowid import FlowId, ip_to_str, str_to_ip
from repro.flows.rules import Match, Rule, RuleTable
from repro.flows.policy import ModelRule, Policy
from repro.flows.universe import FlowUniverse
from repro.flows.arrival import PoissonArrivalProcess
from repro.flows.config import (
    NetworkConfiguration,
    ConfigGenerator,
    enumerate_mask_rules,
)

__all__ = [
    "FlowId",
    "ip_to_str",
    "str_to_ip",
    "Match",
    "Rule",
    "RuleTable",
    "ModelRule",
    "Policy",
    "FlowUniverse",
    "PoissonArrivalProcess",
    "NetworkConfiguration",
    "ConfigGenerator",
    "enumerate_mask_rules",
]
