#!/usr/bin/env python3
"""Replay every bundled scenario and print the transcripts."""

from deontic.cli import demo_transcript
from deontic.proof import SCENARIOS, run_scenario, scenario_registry


def main() -> int:
    registry = scenario_registry()
    failures = 0
    for name in SCENARIOS:
        result = run_scenario(name, registry)
        print(demo_transcript(result))
        print()
        if not result.ok:
            failures += 1
    if failures:
        print(f"{failures} scenario(s) FAILED")
        return 1
    print("all scenarios replay cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
