#!/bin/sh
# Non-test lines of code per crate: every `src/**/*.rs` file is cut at its
# first `#[cfg(test)]`, and blank and comment-only lines are not counted.
# ROADMAP asks every PR for this table; run from anywhere inside the repo.
#
#   scripts/loc.sh            # the workspace crates, vendor stand-ins, total
#   scripts/loc.sh crates/core crates/planner
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

if [ "$#" -eq 0 ]; then
    set -- crates/*/ crates/vendor/*/
fi
total=0
for dir in "$@"; do
    dir=${dir%/}
    [ -d "$dir/src" ] || continue
    n=$(count "$dir")
    total=$((total + n))
    printf '%-28s %6d\n' "${dir#crates/}" "$n"
done
printf '%-28s %6d\n' total "$total"
