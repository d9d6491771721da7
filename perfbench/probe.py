"""One set-up of a workload, timed in a fresh interpreter.

    python3 perfbench/probe.py <workload> <inputs.json>

Prints {"setup_s": ...}: the seconds from just before ``import groupmatch``
to a loaded, validated workload ready for its first operation.  run.py
starts several of these one after another and reports their median.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    name, inputs_path = sys.argv[1], sys.argv[2]
    files = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    started = time.perf_counter()
    import groupmatch  # noqa: F401  (its import is part of set-up)
    from workloads import WORKLOADS

    WORKLOADS[name].setup(files)
    print(json.dumps({"setup_s": time.perf_counter() - started}))


if __name__ == "__main__":
    main()
