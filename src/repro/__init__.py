"""Reproduction of *Flow Reconnaissance via Timing Attacks on SDN Switches*.

Liu, Reiter, Sekar -- ICDCS 2017.

The package is organised in layers:

* :mod:`repro.flows` -- flow identifiers, wildcard rules, policies,
  Poisson traffic, and the paper's random network-configuration sampler.
* :mod:`repro.core` -- the paper's contribution: the basic (Section IV-A)
  and compact (Section IV-B) Markov models of an SDN switch rule cache,
  and information-gain probe selection (Section V).
* :mod:`repro.simulator` -- a discrete-event SDN substrate standing in
  for the paper's Mininet / Open vSwitch / Ryu testbed: switches with
  OVS-like flow tables, a reactive controller, the Stanford backbone
  topology, and a calibrated latency model for the timing side channel.
* :mod:`repro.experiments` -- the Section VI evaluation harness
  reproducing every figure and measurement in the paper.
* :mod:`repro.countermeasures` -- the Section VII-B defenses.
* :mod:`repro.analysis` -- latency CDFs, the timing threshold's ROC,
  leakage maps, rule-sharing structure, state-count math.

Quickstart::

    from repro import quick_attack_demo
    print(quick_attack_demo(seed=7))

or see ``examples/quickstart.py`` for a step-by-step walkthrough.
"""

from repro.version import __version__

__all__ = ["__version__", "quick_attack_demo"]


def quick_attack_demo(seed: int = 7) -> str:
    """Run one tiny end-to-end reconnaissance attack and describe it.

    Samples a paper-style network configuration, fits the compact model,
    selects the optimal probe, runs a handful of simulated trials, and
    returns a human-readable summary.  Intended as a smoke test and a
    first point of contact with the API.
    """
    from repro.experiments.harness import ConfigHarness
    from repro.experiments.params import ExperimentParams

    params = ExperimentParams(n_trials=20, seed=seed)
    harness = ConfigHarness.sample(params)
    result = harness.run_trials()
    lines = [
        "Flow reconnaissance demo",
        f"  target flow: #{harness.config.target_flow} "
        f"(P(absent) = {harness.config.absence_probability():.3f})",
        f"  optimal probe: flow #{harness.model_attacker.probes[0]} "
        f"(gain = {harness.model_attacker.predicted_gain:.4f} bits)",
    ]
    for name, accuracy in sorted(result.accuracies.items()):
        lines.append(f"  {name:12s} accuracy = {accuracy:.3f}")
    return "\n".join(lines)
