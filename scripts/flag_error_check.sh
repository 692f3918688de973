#!/usr/bin/env bash
# Flag-error check: runs a binary with one bad flag (plus any flags it conflicts with) and
# passes only when it exits with status 2 and its stderr names the bad flag — the strict
# simkit/flags.h contract for malformed values, and the rule that a flag the chosen mode
# would ignore is an error.
#   scripts/flag_error_check.sh <binary> <--flag=bad-value> [other flags...]
set -uo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <binary> <--flag=bad-value> [other flags...]" >&2
  exit 2
fi

binary=$1
arg=$2
shift 2
flag=${arg%%=*}=

stderr=$("$binary" "$arg" "$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne 2 ]; then
  echo "$binary $arg $*: exit status $status, want 2" >&2
  exit 1
fi
if [[ "$stderr" != *"$flag"* ]]; then
  echo "$binary $arg $*: stderr does not name $flag: $stderr" >&2
  exit 1
fi
echo "flag error ok: $binary $arg $* -> $stderr"
