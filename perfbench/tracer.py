"""Run one chordlab CLI invocation in this process with span wrappers on.

    python3 perfbench/tracer.py --spans OUT.json -- <chordlab arguments>

Installs the wrappers listed in layers.SPANS, calls ``chordlab.cli.main``,
removes every wrapper again, and writes the aggregated spans, per-family
walks, lru_cache counters, absent targets and any attribute left patched to
OUT.json.  The exit code is the CLI's, or 3 if a wrapper was not removed.
The chordlab package must be importable (run.py puts ``src`` on PYTHONPATH).
"""
from __future__ import annotations

import argparse
import json
import sys

import layers
import spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from chordlab import cli

    cached = {}
    for spec in layers.SPANS:
        found = spans.resolve("chordlab", spec.target)
        if found is not None and hasattr(found[2], "cache_info"):
            cached[spec.target] = found[2]
    rec = spans.Recorder()
    patches, absent = spans.install(rec, layers.SPANS)
    try:
        rc = cli.main(cli_args)
    finally:
        spans.restore(patches)
    left = spans.unrestored(patches)

    caches = {target: fn.cache_info()._asdict() for target, fn in cached.items()}
    payload = {
        "rc": rc,
        "buckets": [[name, parent, *values] for (name, parent), values in rec.buckets.items()],
        "walks": [[family, key, records] for (family, key), records in rec.walks.items()],
        "caches": caches,
        "absent": absent,
        "unrestored": left,
    }
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    if left:
        print(f"tracer: attributes still wrapped: {', '.join(left)}", file=sys.stderr)
        return 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
