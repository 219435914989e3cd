#!/usr/bin/env sh
# Config audit: a field of a *Config / *Policy / *Model / *Params struct in
# src/ that no caller assigns is one value in use, and belongs in a named
# constant at its use site.
#
#   scripts/config_audit.sh
#
# Prints each such field that nothing in src/, bench/, benchmark/, tools/,
# examples/ or tests/ assigns, and each field whose every assignment outside
# tests/ copies one and the same named constant (`x.name = kName;` or
# `x.name = ns::kName;`), which is one value in use too; it exits 1 if
# either list is not empty. Then, for information only, prints the fields
# only tests/ assign: knobs that no campaign, bench, tool or example sets.
# A change that adds a config field should leave all three lists as it
# found them.
#
# Three blind spots, each of which has hidden a field with one value:
# - A member declared without an initializer (`Type name;`, as struct-typed
#   members such as CampaignConfig's `chaos` are) is never listed; only
#   `Type name = value;` members are.
# - A field counts as set when any struct's field of the same name is
#   assigned (`x.name = ...` or `x->name = ...`), so a field passes whenever
#   a namesake in another struct is set to something else:
#   HoneypotConfig::client_version passed on PeerProfile's and LogRecord's
#   namesakes although nothing set it.
# - Only named constants count as one value: a single literal written at
#   one site (`mc.escalate_after = 3;`, as the manager's four watchdog
#   fields once were) passes.
# It also assumes, as holds today, that no config struct is brace-
# initialised by position and that an assignment's value ends on its line.
#
# Run from anywhere; paths resolve relative to the repo root.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root"

fields=$(awk '
  /^struct [A-Za-z]*(Config|Policy|Model|Params)[ {:]/ { name = $2; next }
  name != "" && /^};/ { name = ""; next }
  name != "" &&
      match($0, /^[ \t]+[A-Za-z_][A-Za-z0-9_:<>, ]*[ \t][a-z][A-Za-z0-9_]*[ \t]*=[^=]/) {
    decl = substr($0, 1, RLENGTH - 1)
    sub(/[ \t]*=$/, "", decl)
    n = split(decl, words, /[ \t]+/)
    print name "::" words[n]
  }
' src/*/*.hpp | sort -u)

unset_fields=""
constant_fields=""
tests_only=""
for field in $fields; do
  member=${field##*::}
  if grep -rqE "[.>]$member = " src bench benchmark tools examples; then
    # Every distinct value assigned outside tests/, cut at its `;`.
    values=$(grep -rhE "[.>]$member = " src bench benchmark tools examples |
      sed -E "s/.*[.>]$member = //; s/;.*/;/" | sort -u)
    if [ "$(printf '%s\n' "$values" | wc -l)" -eq 1 ] &&
      printf '%s\n' "$values" |
        grep -qE '^([A-Za-z_][A-Za-z0-9_]*::)*k[A-Z][A-Za-z0-9_]*;$'; then
      constant_fields="$constant_fields $field=${values%;}"
    fi
  elif grep -rqE "[.>]$member = " tests; then
    tests_only="$tests_only $field"
  else
    unset_fields="$unset_fields $field"
  fi
done

status=0
echo "config_audit: fields nothing assigns:"
if [ -n "$unset_fields" ]; then
  printf '  %s\n' $unset_fields
  status=1
else
  echo "  (none)"
fi
echo "config_audit: fields every non-test assignment sets to one constant:"
if [ -n "$constant_fields" ]; then
  printf '  %s\n' $constant_fields
  status=1
else
  echo "  (none)"
fi
echo "config_audit: fields only tests/ assign (information only):"
if [ -n "$tests_only" ]; then
  printf '  %s\n' $tests_only
else
  echo "  (none)"
fi
exit "$status"
