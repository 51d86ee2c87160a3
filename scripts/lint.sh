#!/usr/bin/env bash
# lint.sh — the one lint entry point, used identically by CI and local
# development so the two can never disagree about what "lint-clean" means.
#
# Gates, in order:
#   1. go vet ./...
#   2. staticcheck ./...        (if installed; CI installs a pinned release)
#   3. graphitti-lint ./...     (repo-invariant analyzers, docs/LINTING.md)
#   4. bash -n scripts/*.sh     (shell syntax)
#
# Prints each gate's verdict and ends with exactly one summary line:
#   lint: PASS (<gates>)   or   lint: FAIL (<failed gates>)
set -u
cd "$(dirname "$0")/.."

ran=()
failed=()

run() {
  local name="$1"
  shift
  local out
  if out=$("$@" 2>&1); then
    echo "lint: $name ok"
  else
    echo "lint: $name FAILED" >&2
    [ -n "$out" ] && echo "$out" >&2
    failed+=("$name")
  fi
  ran+=("$name")
}

run "go vet" go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
  run "staticcheck" staticcheck ./...
else
  echo "lint: staticcheck skipped (not installed; CI runs the pinned release)"
fi

run "graphitti-lint" go run ./cmd/graphitti-lint ./...

shell_syntax() {
  local f rc=0
  for f in scripts/*.sh; do
    bash -n "$f" || rc=1
  done
  return "$rc"
}
run "bash -n" shell_syntax

if [ "${#failed[@]}" -gt 0 ]; then
  echo "lint: FAIL (${failed[*]})"
  exit 1
fi
echo "lint: PASS (${ran[*]})"
