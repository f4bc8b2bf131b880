#!/usr/bin/env bash
# The size meter: non-test lines, test lines and `pub` declarations per
# crate, one row per workspace package plus a total.
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

printf '%-14s %9s %9s %5s\n' crate non-test test pub
total_n=0 total_t=0 total_p=0
row() {
    local name=$1 n t p
    shift
    read -r n t p < <(count "$@")
    printf '%-14s %9d %9d %5d\n' "$name" "$n" "$t" "$p"
    total_n=$((total_n + n)) total_t=$((total_t + t)) total_p=$((total_p + p))
}
row mha src tests examples
for dir in crates/*/; do
    row "$(basename "$dir")" "$dir"
done
printf '%-14s %9d %9d %5d\n' total "$total_n" "$total_t" "$total_p"
