#!/usr/bin/env bash
# End-to-end distributed-fleet smoke: boots two hangdoctord shard-group workers plus the
# fleetd coordinator, replays a recorded session fleet through the loadgen against the
# coordinator port, SIGKILLs one worker mid-run, and asserts that (a) every session still
# closes clean (failover replays the dead worker's sessions on the survivor), (b) fleetd
# drains clean on SIGTERM, and (c) the merged report is byte-identical to a single-worker
# baseline run of the same sessions. Run from the repo root against a configured build tree:
#
#   scripts/fleetd_smoke.sh [build-dir]     (default: build)
#
# The build tree must already contain bench/table5_app_study (records the logs),
# src/netd/hangdoctord, src/fleetd/fleetd, and tools/loadgen.
set -euo pipefail

build=${1:-build}
for binary in bench/table5_app_study src/netd/hangdoctord src/fleetd/fleetd tools/loadgen; do
  if [ ! -x "$build/$binary" ]; then
    echo "fleetd_smoke: missing $build/$binary (build the 'table5_app_study'," \
         "'hangdoctord', 'fleetd_bin', and 'loadgen' targets first)" >&2
    exit 2
  fi
done

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
  rm -rf "$work"
}
trap cleanup EXIT

# Boots a worker-mode hangdoctord. Sets boot_port/boot_pid (no subshell: the pid must land
# in the parent's pids array for cleanup).
boot_worker() {
  local log=$1
  "$build/src/netd/hangdoctord" --port=0 --workers=2 --worker > "$log" 2>&1 &
  boot_pid=$!
  pids+=("$boot_pid")
  disown "$boot_pid"  # workers are killed, never waited on: silence the job-control notice
  boot_port=""
  for _ in $(seq 1 100); do
    boot_port=$(sed -n 's/^hangdoctord listening on port \([0-9]*\).*/\1/p' "$log")
    [ -n "$boot_port" ] && break
    kill -0 "$boot_pid" 2>/dev/null || { cat "$log" >&2; return 1; }
    sleep 0.1
  done
  [ -n "$boot_port" ] || { echo "fleetd_smoke: worker never printed its port" >&2; return 1; }
}

# Boots fleetd over the given worker ports. Sets boot_port/boot_pid, as above.
boot_fleetd() {
  local log=$1
  shift
  local args=()
  for wport in "$@"; do
    args+=("--worker-port=$wport")
  done
  "$build/src/fleetd/fleetd" "${args[@]}" --port=0 --max-sessions=24 > "$log" 2>&1 &
  boot_pid=$!
  pids+=("$boot_pid")
  boot_port=""
  for _ in $(seq 1 100); do
    boot_port=$(sed -n 's/^fleetd listening on port \([0-9]*\).*/\1/p' "$log")
    [ -n "$boot_port" ] && break
    kill -0 "$boot_pid" 2>/dev/null || { cat "$log" >&2; return 1; }
    sleep 0.1
  done
  [ -n "$boot_port" ] || { echo "fleetd_smoke: fleetd never printed its port" >&2; return 1; }
}

# The merged fleet report, without the run-specific banner/fleet-stats/drain lines.
extract_report() {
  awk '/^fleetd: signal/{on=1;next} /^drained clean/{on=0} on && !/^fleet: /' "$1"
}

# 1. Record donor logs: the smoke-budget app study with --record taps every fleet job's
#    telemetry into $work/logs/job_<i>.hdsl.
mkdir -p "$work/logs"
HANGDOCTOR_SMOKE=1 "$build/bench/table5_app_study" --jobs=2 --record="$work/logs" \
  > "$work/record.log" 2>&1
log_count=$(ls "$work/logs"/*.hdsl | wc -l)
echo "fleetd_smoke: recorded $log_count session logs"

# 2. Baseline: one worker behind the coordinator, full-speed loadgen, graceful drain. This
#    run's merged report is the oracle the failover run must reproduce byte-for-byte.
boot_worker "$work/base_worker.log"
base_worker_port=$boot_port
boot_fleetd "$work/base_fleetd.log" "$base_worker_port"
base_port=$boot_port
base_fleetd_pid=$boot_pid
echo "fleetd_smoke: baseline up (worker :$base_worker_port, fleetd :$base_port)"

# A bad client costs only its own connection: after HELLO 4 it sends a kRecord frame for a
# session it never opened (tag 02, id 01, size 03, then 3 body bytes). fleetd must answer
# kError and must not route the frame: the worker would take it as a stream violation and
# drop its coordinator link, and the baseline run below would then fail.
python3 - "$base_port" <<'PY' || { echo "fleetd_smoke: bad client not refused with kError" >&2; exit 1; }
import socket
import sys

def frame(payload):
    return bytes([len(payload)]) + payload

sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
sock.sendall(frame(b"HDSL\x04") + frame(bytes.fromhex("020103630102")))
buf, tags = b"", []
try:
    while len(tags) < 2:
        chunk = sock.recv(4096)
        if not chunk:
            break
        buf += chunk
        while True:  # pop every complete reply frame: varint length, then the payload
            size, shift, pos = 0, 0, 0
            while pos < len(buf) and buf[pos] & 0x80:
                size |= (buf[pos] & 0x7F) << shift
                shift += 7
                pos += 1
            if pos >= len(buf):
                break
            size |= buf[pos] << shift
            pos += 1
            if len(buf) < pos + size:
                break
            tags.append(buf[pos])
            buf = buf[pos + size:]
except socket.timeout:
    pass
print("fleetd_smoke: bad client got reply tags", tags)
sys.exit(0 if tags[:2] == [1, 4] else 1)  # kHelloOk, then kError
PY
"$build/tools/loadgen" --port="$base_port" --dir="$work/logs" --sessions=24 \
  --connections=4 > "$work/base_loadgen.log" 2>&1
grep -q "24 closed, 0 busy, 0 errors" "$work/base_loadgen.log" || {
  echo "fleetd_smoke: baseline loadgen is not a clean 24-session run" >&2
  cat "$work/base_loadgen.log" >&2
  exit 1
}
kill -TERM "$base_fleetd_pid"
status=0
wait "$base_fleetd_pid" || status=$?
if [ "$status" -ne 0 ]; then
  echo "fleetd_smoke: baseline fleetd exited $status" >&2
  cat "$work/base_fleetd.log" >&2
  exit 1
fi
grep -q "drained clean: 24 sessions, 0 aborted" "$work/base_fleetd.log" || {
  echo "fleetd_smoke: baseline fleetd did not drain clean" >&2
  cat "$work/base_fleetd.log" >&2
  exit 1
}
extract_report "$work/base_fleetd.log" > "$work/base_report.txt"
echo "fleetd_smoke: baseline report captured ($(wc -l < "$work/base_report.txt") lines)"

# 3. Failover run: two workers split sessions 1..12 / 13..24 (--max-sessions=24); the
#    loadgen is rate-limited so the run is still in flight when worker B is SIGKILLed.
boot_worker "$work/worker_a.log"
worker_a_port=$boot_port
boot_worker "$work/worker_b.log"
worker_b_port=$boot_port
worker_b_pid=$boot_pid
boot_fleetd "$work/fleetd.log" "$worker_a_port" "$worker_b_port"
fleet_port=$boot_port
fleetd_pid=$boot_pid
echo "fleetd_smoke: shard group up (workers :$worker_a_port :$worker_b_port," \
     "fleetd :$fleet_port)"

"$build/tools/loadgen" --port="$fleet_port" --dir="$work/logs" --sessions=24 \
  --connections=4 --rate=150 > "$work/loadgen.log" 2>&1 &
loadgen_pid=$!
pids+=("$loadgen_pid")
sleep 2
kill -KILL "$worker_b_pid"
echo "fleetd_smoke: killed worker B (pid $worker_b_pid) mid-run"

status=0
wait "$loadgen_pid" || status=$?
if [ "$status" -ne 0 ]; then
  echo "fleetd_smoke: loadgen exited $status after worker kill" >&2
  cat "$work/loadgen.log" >&2
  exit 1
fi
grep -q "24 closed, 0 busy, 0 errors" "$work/loadgen.log" || {
  echo "fleetd_smoke: loadgen summary is not a clean 24-session run after failover" >&2
  cat "$work/loadgen.log" >&2
  exit 1
}

# 4. Graceful drain: SIGTERM fleetd, assert exit 0, a clean drain accounting for every
#    session, at least one recorded failover, and a merged report byte-identical to the
#    single-worker baseline.
kill -TERM "$fleetd_pid"
status=0
wait "$fleetd_pid" || status=$?
if [ "$status" -ne 0 ]; then
  echo "fleetd_smoke: fleetd exited $status" >&2
  cat "$work/fleetd.log" >&2
  exit 1
fi
grep -q "drained clean: 24 sessions, 0 aborted" "$work/fleetd.log" || {
  echo "fleetd_smoke: fleetd did not drain clean" >&2
  cat "$work/fleetd.log" >&2
  exit 1
}
grep -q "fleet: .* failovers" "$work/fleetd.log" || {
  echo "fleetd_smoke: no failover recorded — the worker kill never reached fleetd" >&2
  cat "$work/fleetd.log" >&2
  exit 1
}
extract_report "$work/fleetd.log" > "$work/report.txt"
if ! cmp -s "$work/base_report.txt" "$work/report.txt"; then
  echo "fleetd_smoke: failover report diverges from the single-worker baseline" >&2
  diff -u "$work/base_report.txt" "$work/report.txt" >&2 || true
  exit 1
fi
echo "fleetd_smoke: OK (24 sessions, worker killed mid-run, report identical to baseline)"
