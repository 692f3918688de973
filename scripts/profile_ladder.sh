#!/usr/bin/env bash
# Profiles one ladder benchmark run with the SIGPROF sampler and prints, over the processes
# the `ladder` binary forked (for an untraced wire workload, the helper that runs the
# daemon), self and inclusive top-N plus the callers of one symbol:
#
#   scripts/profile_ladder.sh <out-dir> <workload> <seed> <seconds> [report.py args...]
#   scripts/profile_ladder.sh /tmp/prof fleet_wire 1 5 --callers FindSlot
#
# The sampler (scripts/profile/sampler.c) is LD_PRELOADed into the `ladder` binary only, not
# into run.py or the build. It is safe there only because `ladder` forks its helpers and
# never execs them: a forked child re-arms the timer in a pthread_atfork handler, and each
# sample is written with write(2) because the helpers leave through _exit(). Do not point it
# at a program that execs. `ladder` leaves hdprof.<pid>.{raw,maps} in <out-dir>, and each
# process it forked hdprof.<ladder pid>-<pid>.{raw,maps}.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
workload=$2 seed=$3 seconds=$4
shift 4
# Builds (or refreshes) the Release `ladder` under .bench_build/ with a short unprofiled run.
python3 "$root/ladderbench/run.py" --workload "$workload" --seed "$seed" --seconds 0.2 \
  --trace 0 > /dev/null
cc -O2 -shared -fPIC -o "$out/sampler.so" "$root/scripts/profile/sampler.c"
rm -f "$out"/hdprof.*
(cd "$out" && LD_PRELOAD="$out/sampler.so" "$root/.bench_build/ladderbench/ladder" run \
  --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
  --workdir "$root/.bench_build/ladderbench-work" | tail -1)
python3 "$root/scripts/profile/report.py" "$out"/hdprof.*-*.raw "$@"
