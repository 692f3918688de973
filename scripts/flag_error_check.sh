#!/usr/bin/env bash
# Malformed-flag check: runs a binary with one bad flag and passes only when it exits with
# status 2 and its stderr names the flag (the strict simkit/flags.h contract).
#   scripts/flag_error_check.sh <binary> <--flag=bad-value>
set -uo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <binary> <--flag=bad-value>" >&2
  exit 2
fi

binary=$1
arg=$2
flag=${arg%%=*}=

stderr=$("$binary" "$arg" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne 2 ]; then
  echo "$binary $arg: exit status $status, want 2" >&2
  exit 1
fi
if [[ "$stderr" != *"$flag"* ]]; then
  echo "$binary $arg: stderr does not name $flag: $stderr" >&2
  exit 1
fi
echo "flag error ok: $binary $arg -> $stderr"
