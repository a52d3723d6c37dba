"""Recompute the pinned outcomes every workload request is checked against.

    python3 perfbench/pin.py            # print the outcomes that differ
    python3 perfbench/pin.py --write    # rewrite perfbench/pins.json

A pinned outcome is (interactions, stabilization_interactions, winner,
final_counts) of one seeded spec.  Backends are bit-identical by
contract, so the pins hold for every backend; rewrite them only for a
change that is meant to alter simulated trajectories, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import PINS_PATH, pin_key, require_source


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    require_source()
    from repro.specs import load_spec, run_spec

    from workloads import pin_spec, pool_keys, result_outcome

    current = json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}
    pins = {}
    for key in pool_keys():
        pins[pin_key(*key)] = result_outcome(run_spec(load_spec(pin_spec(*key))))
        if current.get(pin_key(*key)) != pins[pin_key(*key)]:
            print(f"{pin_key(*key)}: {pins[pin_key(*key)][:3]}")
    if args.write:
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(pins.items())]
        PINS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
