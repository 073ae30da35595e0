#!/bin/sh
# Non-test lines of code per crate: every `src/**/*.rs` file is cut at its
# first `#[cfg(test)]`, and blank and comment-only lines are not counted.
# ROADMAP asks every PR for this table; run from anywhere inside the repo.
#
#   scripts/loc.sh            # the workspace crates, vendor stand-ins, total
#   scripts/loc.sh crates/core crates/planner
#   scripts/loc.sh --check scripts/loc_ceiling.txt
#
# `--check FILE` prints the table and exits non-zero when a crate, vendor
# stand-ins included, has no `crate ceiling` line in FILE or counts other
# than its ceiling: more lines fail, and so do fewer, naming the new count.
# A PR that needs the room raises the ceiling in the same diff, and one
# that shrinks a crate lowers it there, so every PR's per-crate line change
# is the ceiling file's diff.
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1/src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { test = 0 }
        /#\[cfg\(test\)\]/ { test = 1 }
        test || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

ceilings=
if [ "${1:-}" = --check ]; then
    ceilings=${2:?--check needs the ceiling file}
    [ -r "$ceilings" ] || { echo "loc.sh: cannot read $ceilings" >&2; exit 2; }
    shift 2
fi
if [ "$#" -eq 0 ]; then
    set -- crates/*/ crates/vendor/*/
fi
total=0
over=0
for dir in "$@"; do
    dir=${dir%/}
    [ -d "$dir/src" ] || continue
    name=${dir#crates/}
    n=$(count "$dir")
    total=$((total + n))
    verdict=
    if [ -n "$ceilings" ]; then
        ceiling=$(awk -v crate="$name" '$1 == crate { print $2 }' "$ceilings")
        if [ -z "$ceiling" ]; then
            verdict="  no ceiling in $ceilings"
            over=1
        elif [ "$n" -gt "$ceiling" ]; then
            verdict="  over its ceiling of $ceiling"
            over=1
        elif [ "$n" -lt "$ceiling" ]; then
            verdict="  under its ceiling of $ceiling: lower it to $n"
            over=1
        else
            verdict="  = $ceiling"
        fi
    fi
    printf '%-28s %6d%s\n' "$name" "$n" "$verdict"
done
printf '%-28s %6d\n' total "$total"
exit "$over"
