"""Write pinned_seed1.json: every solve_abstract value at the pinned seed.

Run from the repository root, on the commit whose values are to be pinned:

    python3 perfbench/pin_abstract.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import abstract  # noqa: E402


def main():
    pins = {}
    for op in abstract.make_instances(abstract.PINNED_SEED):
        kind, i, inst = op
        value, problem = abstract.check_value(kind, inst, abstract.AbstractWorkload.run(op))
        if problem is not None:
            raise SystemExit(f"{kind}/{i}: {problem}")
        pins[f"{kind}/{i}"] = value
    abstract.PINNED.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
