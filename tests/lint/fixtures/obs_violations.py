"""OBS001 fixture: spans opened without a context manager.

Never imported -- parsed by the lint tests.  Lines carrying a
``expect[RULE]`` marker must produce exactly that finding.
"""


def bare_span_statement(obs):
    obs.span("engine.select")  # expect[OBS001]
    return obs


def span_assigned_but_never_entered(tracer):
    pending = tracer.span("experiment.trial", trial=0)  # expect[OBS001]
    return pending


def annotated_assignment(obs):
    timer: object = obs.span("experiment.trial_batch")  # expect[OBS001]
    return timer


def with_block_is_fine(obs):
    with obs.span("engine.select", method="exhaustive"):
        with obs.span("engine.score") as timer:
            return timer


def forwarding_the_context_manager_is_fine(obs, name):
    return obs.span(name)


def passing_it_along_is_fine(stack, obs):
    stack.enter_context(obs.span("cli.headline"))
