#!/usr/bin/env bash
# Layering check for the substrate-agnostic detector core (DESIGN.md section 3.3).
#
# src/hangdoctor/ is the Hang Doctor core: it may depend only on the Telemetry Host SPI
# vocabulary (src/telemetry/) and simkit time/ids/rng. Substrate knowledge — the droidsim
# Android model, the perfsim counter model, the kernelsim scheduler — lives in the hosts
# (src/hosts/, src/baselines adapters). An include of a substrate header from the core is a
# layering violation: it would break the record/replay guarantee that a session log is a
# complete description of everything the detector observed.
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
core_dir="$repo_root/src/hangdoctor"

if [ ! -d "$core_dir" ]; then
  echo "layering check: $core_dir not found" >&2
  exit 2
fi

# faultsim is also forbidden: fault *injection* is a host-side concern — the core only ever
# sees the faulty telemetry (and CounterFault records), never the plan that produced it.
violations=$(grep -rnE '#include "src/(droidsim|perfsim|kernelsim|hosts|baselines|workload|faultsim)/' \
  "$core_dir" || true)

if [ -n "$violations" ]; then
  echo "layering violation: src/hangdoctor must not include substrate or host headers:" >&2
  echo "$violations" >&2
  exit 1
fi

# The PR-3 compatibility shims (src/perfsim/events.h, src/droidsim/stack.h) re-exported the
# telemetry vocabulary into substrate namespaces; they are deleted and must not come back —
# neither the headers, nor alias-qualified uses of the telemetry names they exported.
shim_includes=$(grep -rnE '#include "src/(perfsim/events|droidsim/stack)\.h"' \
  "$repo_root/src" "$repo_root/tests" "$repo_root/bench" "$repo_root/examples" \
  "$repo_root/tools" 2>/dev/null || true)
alias_uses=$(grep -rnE \
  'perfsim::(PerfEventType|kNumPerfEvents|IsSoftwareEvent|PerfEventName|PerfEventFromName|AllPerfEvents|CounterArray)|droidsim::(FrameId|StackFrame|StackTrace|FormatFrame)\b' \
  --include='*.h' --include='*.cc' --include='*.cpp' \
  "$repo_root/src" "$repo_root/tests" "$repo_root/bench" "$repo_root/examples" \
  "$repo_root/tools" 2>/dev/null || true)

if [ -n "$shim_includes$alias_uses" ]; then
  echo "layering violation: the telemetry vocabulary must be used via telemetry::, not the" >&2
  echo "deleted perfsim/droidsim alias shims:" >&2
  [ -n "$shim_includes" ] && echo "$shim_includes" >&2
  [ -n "$alias_uses" ] && echo "$alias_uses" >&2
  exit 1
fi

# The async-execution substrate (DESIGN.md section 3.8) lives entirely in droidsim; only the
# telemetry:: causal vocabulary (CausalEdgeId, ThreadId, the Async* SPI records) crosses the
# SPI. A droidsim async type or hook name appearing in the core would tie waiting-chain
# diagnosis to one substrate's threading model and break session-log replay.
async_uses=$(grep -rnE \
  'droidsim::(AsyncOp|AsyncTask|App|AppObserver)\b|MakeAsyncSubmit|MakeFutureWait|PostAsync|AsyncReady|BeginAsyncWait|EndAsyncWait' \
  --include='*.h' --include='*.cc' "$core_dir" 2>/dev/null || true)

if [ -n "$async_uses" ]; then
  echo "layering violation: src/hangdoctor must not name droidsim async substrate types;" >&2
  echo "only the telemetry:: causal vocabulary crosses the SPI:" >&2
  echo "$async_uses" >&2
  exit 1
fi

# One byte codec (DESIGN.md section 3.3): src/telemetry/bytes.h holds the only varint,
# zigzag, raw-double and length-prefixed-string implementation. A LEB128 loop (the 7-bit
# mask, the 0x80 loop bound, the 7-bit shift) or a zigzag sign fold anywhere else in the
# program code, or a codec function of that name defined over a buffer, is a private copy
# coming back. ladderbench/ is a separate package with its own build and is not scanned.
codec_copies=$(grep -rnE \
  '& 0x7[fF]\b|>= 0x80\b|shift \+= 7|>>= 7|>> 63\b|^\s*((static|inline)\s+)*(void|bool|u?int(8|32|64)_t)\s+(\w+::)?(PutVarint|GetVarint|PutZig|GetZig|Zigzag\w*)\([^)]' \
  --include='*.h' --include='*.cc' "$repo_root/src" "$repo_root/tools" "$repo_root/bench" \
  | grep -v "^$repo_root/src/telemetry/bytes\.h:" || true)

if [ -n "$codec_copies" ]; then
  echo "layering violation: a private varint/zigzag codec outside src/telemetry/bytes.h;" >&2
  echo "use the shared codec instead:" >&2
  echo "$codec_copies" >&2
  exit 1
fi

echo "layering ok: src/hangdoctor depends only on src/telemetry and src/simkit"
echo "layering ok: no perfsim/droidsim alias-shim usage"
echo "layering ok: no droidsim async substrate types in the core"
echo "layering ok: one byte codec (src/telemetry/bytes.h)"
