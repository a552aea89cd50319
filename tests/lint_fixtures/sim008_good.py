# simlint-path: src/repro/experiments/fixture_sim008_ok.py
"""Known-good twin: drivers route through repro.runner; cell functions
and helpers may build simulations directly."""


def run_fixture(config, campaign=None):
    from repro.runner import RunSpec, run_spec

    return run_spec(RunSpec("fixture", config), campaign).value


def _simulate(config):
    # The registered cell function is the one place that builds directly.
    from repro.topology.bottleneck import build_single_bottleneck

    net = build_single_bottleneck(num_pairs=2)
    net.sim.run(until=config.duration)
    return net
