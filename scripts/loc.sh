#!/bin/sh
# Non-test lines of code per crate: every `src/**/*.rs` file is cut at its
# first `#[cfg(test)]`, and blank and comment-only lines are not counted.
# ROADMAP asks every PR for this table; run from anywhere inside the repo.
#
#   scripts/loc.sh            # the workspace crates, vendor stand-ins, total
#   scripts/loc.sh crates/core crates/planner
#   scripts/loc.sh --check scripts/loc_ceiling.txt
#
# `--check FILE` prints the table and exits non-zero when a crate counts more
# lines than the `crate ceiling` line FILE gives it, or when a non-vendor
# workspace crate has no line in FILE. A PR that needs the room raises the
# ceiling in the same diff, where a reviewer sees it.
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
    if [ -n "$ceilings" ] && [ "${name#vendor/}" = "$name" ]; then
        ceiling=$(awk -v crate="$name" '$1 == crate { print $2 }' "$ceilings")
        if [ -z "$ceiling" ]; then
            verdict="  no ceiling in $ceilings"
            over=1
        elif [ "$n" -gt "$ceiling" ]; then
            verdict="  over its ceiling of $ceiling"
            over=1
        else
            verdict="  <= $ceiling"
        fi
    fi
    printf '%-28s %6d%s\n' "$name" "$n" "$verdict"
done
printf '%-28s %6d\n' total "$total"
exit "$over"
