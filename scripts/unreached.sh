#!/bin/sh
# Public items only tests name, or nothing names: every `src/**/*.rs` of a
# non-vendor crate other than the bench-only `crates/bench` is cut at its
# first `#[cfg(test)]` (as `loc.sh` cuts it), and each
# `pub (fn|struct|enum|trait|const|type|static)` name in the cut part is
# printed as `file name` when its definition is the word's only mention in
# production code.
#
# Production code is every `*.rs` file of `crates/*/{src,tests,benches}`,
# `src/`, `examples/`, `tests/` and `benchmark/src/` except test code: a file
# under a `tests/` or `benches/` directory, the bench-only crate
# `crates/bench`, and a file's part from its first `#[cfg(test)]` on. An item
# some test code names is printed with `(tests only)`: move it into its
# crate's test module, delete it when its tests can call the production path,
# or allow-list it.
#
# Comment-only lines do not count as a mention, and neither do words inside a
# string literal (an assert message is not a call) or a `pub use` item, up to
# its `;`: re-exporting a name does not call it.
# A name as common as `new` or `len` is always named somewhere, so this lists
# only what is certainly unreached from production, never everything that is.
#
#   scripts/unreached.sh      # run from anywhere inside the repo
#
# Exits non-zero when something prints whose name has no `name  reason` line
# in `scripts/unreached_allow.txt`, or when that file allows a name that is no
# longer printed.
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
    FNR == 1 {
        test = FILENAME ~ /(^|\/)(tests|benches)\// || FILENAME ~ /^crates\/bench\//
        reexport = 0
        defines = FILENAME ~ /^crates\/[^\/]+\/src\// && !test
    }
    /#\[cfg\(test\)\]/ { test = 1 }
    /^[[:space:]]*\/\// { next }
    /^[[:space:]]*pub use / { reexport = 1 }
    reexport { if (/;/) reexport = 0; next }
    {
        gsub(/"([^"\\]|\\.)*"/, "\"\"")
        if (defines && !test && match($0, /pub ((const|unsafe|async) )*(fn|struct|enum|trait|const|type|static) +[A-Za-z_][A-Za-z0-9_]*/)) {
            n = split(substr($0, RSTART, RLENGTH), word, " ")
            definition[FILENAME SUBSEP word[n]] = 1
        }
        n = split($0, word, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            if (word[i] == "") continue
            if (test) tested[word[i]] = 1
            else production[word[i]]++
        }
    }
    END {
        status = 0
        for (key in definition) {
            split(key, part, SUBSEP)
            name = part[2]
            if (production[name] > 1) continue
            reported[name] = 1
            verdict = ""
            if (name in tested) verdict = "  (tests only)"
            if (name in allowed) verdict = verdict "  (allowed)"
            else status = 1
            printf "%s %s%s\n", part[1], name, verdict | "sort"
        }
        close("sort")
        for (name in allowed) {
            if (!(name in reported)) {
                printf "unreached.sh: %s lists %s, which production names or is gone\n", allow, name
                status = 1
            }
        }
        exit status
    }' || exit 1
