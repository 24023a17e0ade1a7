#!/usr/bin/env bash
# Run a change's three checks on committed trees: the tier-1 suite and the
# benchmark smoke run on HEAD, then tools/compare_outputs.py from BASE to HEAD.
#
# Usage (from anywhere inside a qcoin checkout):
#     tools/check.sh [BASE]        # BASE defaults to HEAD~1
#
# BASE and HEAD are exported with `git archive` into a temporary directory,
# removed on exit, so uncommitted edits are not checked and the checkout
# stays clean.  The script exits non-zero if the tier-1 suite or the smoke
# run fails.  The comparison is printed with its exit status but does not
# decide the script's: a change that alters outputs on purpose expects DIFF
# lines.  Needs bash, git and the Python that runs the tests.
set -uo pipefail

base=${1:-HEAD~1}
root=$(git rev-parse --show-toplevel) || exit 2
git -C "$root" rev-parse --verify --quiet "$base^{commit}" >/dev/null \
    || { echo "check.sh: unknown commit $base" >&2; exit 2; }
work=$(mktemp -d "${TMPDIR:-/tmp}/qcoin-check-XXXXXX") || exit 2
trap 'rm -rf "$work"' EXIT
mkdir "$work/base" "$work/head"
git -C "$root" archive "$base" | tar -x -C "$work/base" || exit 2
git -C "$root" archive HEAD | tar -x -C "$work/head" || exit 2

status=0
echo "== tier-1 tests on HEAD ($(git -C "$root" rev-parse --short HEAD))"
(cd "$work/head" && PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m pytest -q --continue-on-collection-errors) \
    || { echo "check.sh: tier-1 tests FAILED"; status=1; }

echo "== perfbench smoke run on HEAD"
(cd "$work/head" && python3 perfbench/run.py --smoke) \
    || { echo "check.sh: smoke run FAILED"; status=1; }

echo "== compare_outputs.py $base -> HEAD"
python3 "$work/head/tools/compare_outputs.py" "$work/base" "$work/head"
echo "check.sh: compare_outputs.py exited $?"

exit $status
