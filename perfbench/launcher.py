"""Child-process entry points of the benchmark.

    python3 perfbench/launcher.py setup PREFIXES_JSON
        Import copyposet, build the given enumeration prefixes and print
        the seconds this took (one sample of a library workload's set-up).

    python3 perfbench/launcher.py count|trace STATS_PATH CLI_ARG...
        Run ``copyposet.cli.main`` on the arguments in this fresh process
        with the benchmark's counters (``count``) or counters and spans
        (``trace``) installed, write them as JSON to STATS_PATH and exit
        with the command's exit code.

The library must be importable, e.g. through PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


class _CountingStdout:
    def __init__(self, stream):
        self.stream = stream
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.stream.write(text)

    def flush(self):
        self.stream.flush()


def setup(prefixes):
    t0 = perf_counter()
    import copyposet
    for sid, n in prefixes.items():
        copyposet.get_structure(sid).prefix(n)
    return perf_counter() - t0


def run_cli(mode, stats_path, argv):
    t0 = perf_counter()
    from copyposet import cli
    import_s = perf_counter() - t0
    from instrument import Instrument

    out = sys.stdout = _CountingStdout(sys.stdout)
    with Instrument(trace=mode == "trace") as ins:
        code = cli.main(argv)
    sys.stdout = out.stream
    stats = {"oracle_calls": ins.oracle_calls(),
             "points_scanned": ins.points_scanned()}
    if mode == "trace":
        stats["layers"] = ins.layer_values()
        stats["layers"]["cli.import_s"] = import_s
        stats["layers"]["cli.jsonl_bytes"] = out.bytes
        stats["spans"] = ins.spans
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(repr(setup(json.loads(argv[1]))))
        return 0
    if argv[:1] in (["count"], ["trace"]) and len(argv) >= 3:
        return run_cli(argv[0], argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
