#!/bin/sh
# Lines of OCaml (.ml + .mli) per library under lib/, and for bin,
# bench and test.  Run from the repository root: sh scripts/loc.sh
set -eu
count() {
  find "$1" -name '*.ml' -o -name '*.mli' | xargs cat 2>/dev/null | wc -l | tr -d ' '
}
total=0
for dir in lib/* bin bench test; do
  [ -d "$dir" ] || continue
  n=$(count "$dir")
  total=$((total + n))
  printf '%-14s %6d\n' "$dir" "$n"
done
printf '%-14s %6d\n' total "$total"
