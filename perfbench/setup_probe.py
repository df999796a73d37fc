"""Set-up probe: import the CLI package and build a workload's initial state.

Usage: python3 perfbench/setup_probe.py SEED import
       python3 perfbench/setup_probe.py SEED main N_AGENTS X VOTE_MODE
       python3 perfbench/setup_probe.py SEED ez N_AGENTS

Prints the package location, then time.monotonic() once the state is built.
The caller reads the clock just before starting the process, so the
difference is the set-up time from process start.
"""

import sys
import time


def main(argv: list[str]) -> None:
    import herdvote.cli  # noqa: F401  (the CLI's own imports are part of set-up)
    import herdvote

    seed, kind, *rest = argv
    if kind == "main":
        n_agents, x, vote_mode = rest
        config = herdvote.SimConfig(n_agents=int(n_agents), x=float(x), total_steps=10,
                                    vote_mode=vote_mode, seed=int(seed))
        herdvote.init_state(config)
    elif kind == "ez":
        import numpy as np

        herdvote.Partition.singletons(int(rest[0]))
        np.random.default_rng(int(seed))
    elif kind != "import":
        raise SystemExit(f"unknown probe kind {kind!r}")
    done = time.monotonic()
    print(herdvote.__file__)
    print(repr(done))


if __name__ == "__main__":
    main(sys.argv[1:])
