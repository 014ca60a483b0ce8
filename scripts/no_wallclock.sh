#!/bin/sh
# no_wallclock.sh — deterministic-core lint.
#
# The trace layer's determinism contract (DESIGN.md §9) is that one
# seed yields one byte sequence per export format, which is only true
# if no wall-clock reading ever reaches an event, a span, or anything
# they are derived from. This gate fails the build if time.Now or
# time.Since appears in the slot-indexed core. The struct-of-arrays
# batch core (internal/lanes, internal/sched) is held to the same rule:
# its reports are byte-identical at any GOMAXPROCS (DESIGN.md §15). A
# line that has a legitimate need (none today) can carry a
# `nowallclock:allow` comment with a justification.
set -eu

cd "$(dirname "$0")/.."

dirs="internal/obs internal/cloud internal/client internal/fleet internal/serve internal/lanes internal/sched"

hits=$(grep -rn --include='*.go' 'time\.\(Now\|Since\)(' $dirs 2>/dev/null |
	grep -v 'nowallclock:allow' || true)

if [ -n "$hits" ]; then
	echo "no-wallclock: wall-clock reads in the deterministic core:" >&2
	echo "$hits" >&2
	echo "no-wallclock: use slot indices; see DESIGN.md §9 (or justify with a nowallclock:allow comment)" >&2
	exit 1
fi
echo "no-wallclock: clean"
