#!/usr/bin/env bash
# The size meter: non-test lines, test lines, `pub` declarations and the
# `pub` declarations no other code names, per crate, one row per
# workspace package plus a total.
#
#   ./scripts/size.sh            # the working tree
#   ./scripts/size.sh <commit>   # any commit, e.g. to paste a before/after
#
# Definitions, applied to the git-tracked `.rs` files of each package
# (`crates/<name>/`, and `src/`, `tests/` and `examples/` for the root
# `mha` package; nothing under `perfbench/`):
#
# - A *line* is a physical line, blank lines and comments included.
# - *Test lines* are every line of a file under a `tests/` directory, and
#   every line of any other file from its first `#[cfg(test)]` line to
#   its end. Everything else is a *non-test line*; examples and binaries
#   count as non-test.
# - A *`pub` declaration* is a non-test line that starts, after
#   indentation, with `pub` followed by `fn`, `const fn`, `unsafe fn`,
#   `struct`, `enum`, `trait`, `type`, `const` or `static`. `pub(crate)`
#   and other restricted items, `pub mod`, `pub use` and `pub` fields do
#   not count.
# - *Unnamed* (`scan`) counts the `pub` declarations whose name appears,
#   as a whole word, in no `.rs` file outside the package's library: not
#   in another package, the package's own bins (`src/bin/`), integration
#   tests or examples, the root `tests/` and `examples/`, nor
#   `perfbench/src`. It is a name scan, not a reachability analysis: a
#   type that other code reaches only through a public signature (a
#   return or field type it never spells out) counts as unnamed, so the
#   column over-counts what could be narrowed, and a common name that
#   happens to appear elsewhere under-counts it.
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-}

files() {
    if [ -n "$rev" ]; then
        git ls-tree -r --name-only "$rev" -- "$@"
    else
        git ls-files -- "$@"
    fi
}

show() {
    if [ -n "$rev" ]; then
        git show "$rev:$1"
    else
        cat "$1"
    fi
}

# The .rs files of the package library rooted at $1 (`src` for the root
# package), without its bins.
library() {
    files "$1" | grep '\.rs$' | grep -v "^$1/bin/" || true
}

# Every .rs file the scan reads, perfbench's stand-ins excluded.
corpus() {
    files | grep '\.rs$' | grep -v '^perfbench/stubs/' || true
}

# Prints how many `pub` declarations of the library rooted at $1 are
# named nowhere outside it.
unnamed() {
    local lib=$1 f outside names
    outside=$(mktemp)
    names=$(mktemp)
    comm -23 <(corpus | sort) <(library "$lib" | sort) | while read -r f; do
        show "$f"
    done >"$outside"
    library "$lib" | while read -r f; do
        show "$f" | awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            match($0, /^[[:space:]]*pub[[:space:]]+((const|unsafe)[[:space:]]+)?(fn|struct|enum|trait|type|const|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
                decl = substr($0, RSTART, RLENGTH)
                sub(/.*[[:space:]]/, "", decl)
                print decl
            }'
    done >"$names"
    local k=0 name
    while read -r name; do
        grep -qw -- "$name" "$outside" || k=$((k + 1))
    done <"$names"
    rm -f "$outside" "$names"
    echo "$k"
}

# Prints "non-test test pub" for the .rs files among the given paths.
count() {
    local f
    files "$@" | grep '\.rs$' | while read -r f; do
        case "/$f" in
            */tests/*) show "$f" | awk '{ t++ } END { print 0, t + 0, 0 }' ;;
            *) show "$f" | awk '
                /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
                test { t++; next }
                { n++ }
                /^[[:space:]]*pub[[:space:]]+((const|unsafe)[[:space:]]+)?(fn|struct|enum|trait|type|const|static)[[:space:]]/ { p++ }
                END { print n + 0, t + 0, p + 0 }' ;;
        esac
    done | awk '{ n += $1; t += $2; p += $3 } END { print n + 0, t + 0, p + 0 }'
}

printf '%-14s %9s %9s %5s %5s\n' crate non-test test pub scan
total_n=0 total_t=0 total_p=0 total_u=0
# row NAME LIBRARY PATH...: LIBRARY is the package's `src` directory.
row() {
    local name=$1 lib=$2 n t p u
    shift 2
    read -r n t p < <(count "$@")
    u=$(unnamed "$lib")
    printf '%-14s %9d %9d %5d %5d\n' "$name" "$n" "$t" "$p" "$u"
    total_n=$((total_n + n)) total_t=$((total_t + t)) total_p=$((total_p + p))
    total_u=$((total_u + u))
}
row mha src src tests examples
for dir in crates/*/; do
    dir=${dir%/}
    row "$(basename "$dir")" "$dir/src" "$dir"
done
printf '%-14s %9d %9d %5d %5d\n' total "$total_n" "$total_t" "$total_p" "$total_u"
