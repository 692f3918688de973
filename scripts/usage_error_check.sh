#!/usr/bin/env bash
# Usage-error check: runs a binary with the given arguments in an empty temporary directory
# and passes only when it exits with status 2 and leaves that directory empty — a tool that
# takes an output path must not treat a flag such as --help as one.
#   scripts/usage_error_check.sh <binary> [args...]
set -uo pipefail

if [ "$#" -lt 1 ]; then
  echo "usage: $0 <binary> [args...]" >&2
  exit 2
fi

binary=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
shift
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

(cd "$work" && "$binary" "$@" > /dev/null 2>&1)
status=$?
if [ "$status" -ne 2 ]; then
  echo "$binary $*: exit status $status, want 2" >&2
  exit 1
fi
left=$(ls -A "$work")
if [ -n "$left" ]; then
  echo "$binary $*: created $left" >&2
  exit 1
fi
echo "usage error ok: $binary $*"
