"""Set-up: everything a fresh process does before its first op can run.

Run as a script, it performs the set-up once and prints ``ready``; the
benchmark times that in fresh processes to measure ``setup_s``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


@dataclass
class Setup:
    registry: object
    scripts: dict[str, str]  # bundled proof scripts by file name


def load_setup() -> Setup:
    import deontic
    from deontic import bundled

    registry = deontic.scenario_registry()
    scripts = {n: bundled.fixture_text(f"proofs/{n}") for n in bundled.fixture_names("proofs")}
    for n in bundled.fixture_names("models"):
        bundled.load_fixture_model(n)
    return Setup(registry, scripts)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    load_setup()
    print("ready", flush=True)
