"""Time one benchmark set-up in a fresh interpreter.

Set-up is what a run pays before time stepping: importing wittenlab (with
numpy, scipy and PyYAML), loading and validating the config, and building
the manifold and the flow.

    python3 benchmarks/setup_probe.py SRC_DIR CONFIG_PATH

prints the set-up time in reference seconds (see ``speed.py``).
"""

import sys

from speed import SpeedClock


def main(src, config_path):
    with SpeedClock() as clock:
        sys.path.insert(0, src)
        import wittenlab.cli  # noqa: F401  (the import a CLI run pays)
        from wittenlab.config import load_config, validate_experiment
        from wittenlab.geometry import build_manifold
        from wittenlab.ricciflow import make_flow

        config = validate_experiment(load_config(config_path))
        manifold = build_manifold(config.manifold)
        if config.flow is not None:
            flow = config.flow
            make_flow(
                manifold,
                flow.get("family"),
                flow.get("params"),
                flow.get("horizon", config.solver.times[-1]),
            )
    return clock.seconds


if __name__ == "__main__":
    print(main(*sys.argv[1:3]))
