#!/usr/bin/env python3
"""Summarises the samples scripts/profile/sampler.c wrote: self and inclusive top-N.

    python3 scripts/profile/report.py hdprof.<pid>.raw [more.raw ...] [--top 25]
        [--callers SYMBOL]

Each .raw file is read with the .maps file of the same name beside it, and the samples of
every file given are added up. Addresses are
symbolized with `nm` (demangled, sorted by address) per module, so the binaries must still
be on disk and carry symbols. Self counts a sample against its innermost function;
inclusive counts it once against every function on its stack. --callers prints, for the
samples whose stack holds a function whose name contains SYMBOL, who called that function.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys

HANDLER_FRAMES = 2  # the signal handler and the kernel's signal trampoline


def linked_at_fixed_addresses(path):
    """True for an ET_EXEC file, whose symbols are runtime addresses already."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return False
    return header[:4] == b"\x7fELF" and struct.unpack_from("<H", header, 16)[0] == 2


class Symbols:
    """Address -> function name for one module, from `nm`."""

    def __init__(self, path):
        self.addrs, self.names = [], []
        # A stripped library has only its dynamic symbols: a name found there is the nearest
        # export, so it is tagged with the library.
        exported = " [%s]" % os.path.basename(path)
        for flags, tag in ((["-C", "-n"], ""), (["-C", "-n", "-D"], exported)):
            done = subprocess.run(["nm"] + flags + ["--defined-only", path],
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            rows = []
            for line in done.stdout.splitlines():
                parts = line.split(" ", 2)
                if len(parts) == 3 and parts[1] in "TtWwiI":
                    rows.append((int(parts[0], 16), parts[2] + tag))
            if rows:
                rows.sort()
                self.addrs = [a for a, _ in rows]
                self.names = [n for _, n in rows]
                break

    def lookup(self, addr):
        i = bisect.bisect_right(self.addrs, addr) - 1
        return self.names[i] if i >= 0 else None


class Process:
    """One sampled process's executable mappings, from its .maps file."""

    def __init__(self, maps_path):
        self.maps = []  # (start, end, module path), sorted
        self.base = {}  # module path -> load base: its lowest mapping of file offset 0
        with open(maps_path) as f:
            for line in f:
                parts = line.split()
                if len(parts) < 6 or not parts[5].startswith("/"):
                    continue
                start, end = (int(x, 16) for x in parts[0].split("-"))
                if int(parts[2], 16) == 0:
                    self.base[parts[5]] = min(start, self.base.get(parts[5], start))
                if "x" in parts[1]:
                    self.maps.append((start, end, parts[5]))
        self.maps.sort()
        self.starts = [m[0] for m in self.maps]


class Symbolizer:
    def __init__(self):
        self.modules = {}  # path -> (Symbols, linked at fixed addresses?)

    def name(self, addr, process):
        i = bisect.bisect_right(process.starts, addr) - 1
        if i < 0 or addr >= process.maps[i][1]:
            return "?"
        path = process.maps[i][2]
        if path not in self.modules:
            self.modules[path] = (Symbols(path), linked_at_fixed_addresses(path))
        symbols, fixed = self.modules[path]
        found = symbols.lookup(addr - (0 if fixed else process.base.get(path, 0)))
        return found if found else "?(" + os.path.basename(path) + ")"


def read_samples(raw_path):
    with open(raw_path, "rb") as f:
        data = f.read()
    pos = 0
    while pos + 8 <= len(data):
        (count,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        if pos + 8 * count > len(data):
            break
        yield struct.unpack_from("<%dQ" % count, data, pos)
        pos += 8 * count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("raw", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--callers")
    args = parser.parse_args()

    symbolizer = Symbolizer()
    self_counts = collections.Counter()
    inclusive = collections.Counter()
    callers = collections.Counter()
    total = 0
    for raw in args.raw:
        process = Process(raw[: -len(".raw")] + ".maps")
        cache = {}

        def symbol(addr):
            if addr not in cache:
                cache[addr] = symbolizer.name(addr, process)
            return cache[addr]

        for frames in read_samples(raw):
            frames = frames[HANDLER_FRAMES:]
            if not frames:
                continue
            # The innermost frame is the interrupted pc; the others are return addresses,
            # which may point just past their call's function.
            names = [symbol(frames[0])] + [symbol(a - 1) for a in frames[1:]]
            total += 1
            self_counts[names[0]] += 1
            for name in set(names):
                inclusive[name] += 1
            if args.callers:
                for depth, name in enumerate(names):
                    if args.callers in name:
                        callers[names[depth + 1] if depth + 1 < len(names) else "<root>"] += 1
                        break

    if total == 0:
        print("no samples")
        return 1
    print("%d samples" % total)

    def table(title, counter):
        print("\n%s" % title)
        for name, count in counter.most_common(args.top):
            print("%6.2f%% %7d  %s" % (100.0 * count / total, count, name[:150]))

    table("self", self_counts)
    table("inclusive", inclusive)
    if args.callers:
        table("callers of *%s*" % args.callers, callers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
