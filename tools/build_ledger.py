#!/usr/bin/env python3
"""Summarise a Ninja build's .ninja_log: compile CPU-seconds per top-level
build directory, the ten slowest translation units, and link time.

    python3 tools/build_ledger.py build/.ninja_log

A compiler or linker runs on one thread, so the wall time ninja records for
an edge is about its CPU time. Only the newest entry per output counts. The
ledger only reports; it gates nothing.
"""
import collections
import sys


def main(path):
    seconds = {}
    with open(path) as log:
        for line in log:
            if line.startswith("#"):
                continue
            start, end, _, output = line.split("\t")[:4]
            seconds[output] = (int(end) - int(start)) / 1000.0
    compiles = {out: s for out, s in seconds.items() if out.endswith(".o")}
    links = {out: s for out, s in seconds.items() if out not in compiles}

    by_dir = collections.Counter()
    for out, s in compiles.items():
        by_dir[out.split("/")[0]] += s
    print(f"compile {sum(compiles.values()):8.1f} CPU-s over {len(compiles)} TUs")
    for top, s in by_dir.most_common():
        print(f"  {top + '/':<14}{s:8.1f} s")
    print("slowest TUs:")
    for out, s in sorted(compiles.items(), key=lambda kv: -kv[1])[:10]:
        # "src/host/CMakeFiles/blap_host.dir/host.cpp.o" -> "src/host/host.cpp"
        head, _, tail = out.partition("/CMakeFiles/")
        print(f"  {s:6.1f} s  {head}/{tail.split('.dir/', 1)[-1][:-2]}")
    print(f"link    {sum(links.values()):8.1f} CPU-s over {len(links)} edges "
          "(executables, libraries, post-build test discovery)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
