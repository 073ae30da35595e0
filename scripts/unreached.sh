#!/bin/sh
# Public items nothing names: every `src/**/*.rs` of a non-vendor crate is cut
# at its first `#[cfg(test)]` (as `loc.sh` cuts it), and each
# `pub (fn|struct|enum|trait|const|type|static)` name in the cut part is
# printed as `file name` when the word occurs
#
#   * in no other file of `crates/*/{src,tests,benches}`, `src/`, `examples/`,
#     `tests/` and `benchmark/src/`, and
#   * once in its own cut part (the definition itself).
#
# Comment-only lines do not count as a mention, and neither do words inside a
# string literal (an assert message is not a call), the item's own in-file
# test module (a method only its unit test calls is unreached) or a `pub use`
# item, up to its `;`: re-exporting a name does not call it.
# A name as common as `new` or `len` is always named somewhere, so this lists
# only what is certainly unreached, never everything that is.
#
#   scripts/unreached.sh      # run from anywhere inside the repo
#
# Exits non-zero when something prints whose name has no `name  reason` line
# in `scripts/unreached_allow.txt`, or when that file allows a name that is no
# longer unreached.
set -eu
cd "$(dirname "$0")/.."

allow=scripts/unreached_allow.txt
for dir in crates/*/src crates/*/tests crates/*/benches src examples tests benchmark/src; do
    [ -d "$dir" ] && find "$dir" -name '*.rs'
done | sort | xargs awk -v allow="$allow" '
    BEGIN {
        while ((getline line < allow) > 0) {
            if (line ~ /^[[:space:]]*(#|$)/) continue
            split(line, field, " ")
            allowed[field[1]] = 1
        }
    }
    FNR == 1 { test = 0; reexport = 0; defines = FILENAME ~ /^crates\/[^\/]+\/src\// }
    /#\[cfg\(test\)\]/ { test = 1 }
    /^[[:space:]]*\/\// { next }
    /^[[:space:]]*pub use / { reexport = 1 }
    reexport { if (/;/) reexport = 0; next }
    {
        gsub(/"([^"\\]|\\.)*"/, "\"\"")
        cut = defines && !test
        if (cut && match($0, /pub ((const|unsafe|async) )*(fn|struct|enum|trait|const|type|static) +[A-Za-z_][A-Za-z0-9_]*/)) {
            n = split(substr($0, RSTART, RLENGTH), word, " ")
            definition[FILENAME SUBSEP word[n]] = 1
        }
        n = split($0, word, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            if (word[i] == "") continue
            if (!((FILENAME, word[i]) in seen)) {
                seen[FILENAME, word[i]] = 1
                files[word[i]]++
            }
            if (cut) own[FILENAME, word[i]]++
        }
    }
    END {
        status = 0
        for (key in definition) {
            split(key, part, SUBSEP)
            name = part[2]
            if (files[name] > 1 || own[key] > 1) continue
            unreached[name] = 1
            verdict = ""
            if (name in allowed) verdict = "  (allowed)"
            else status = 1
            printf "%s %s%s\n", part[1], name, verdict | "sort"
        }
        close("sort")
        for (name in allowed) {
            if (!(name in unreached)) {
                printf "unreached.sh: %s lists %s, which is named again or gone\n", allow, name
                status = 1
            }
        }
        exit status
    }' || exit 1
