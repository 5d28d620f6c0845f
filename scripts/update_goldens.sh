#!/usr/bin/env bash
# Regenerates the golden RunReports and FleetReports in tests/golden/, and the
# five-system figure tables (FiveSystems.txt), after an intentional behavioral
# change. Builds the golden test and the sweep, reruns the test in update mode
# and the sweep into its golden, then shows what moved; review and commit the
# diff like any other change.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target golden_report_test bench_five_systems

FABACUS_UPDATE_GOLDENS=1 "$BUILD_DIR/tests/golden_report_test"
# Figs 10-14 and 16: the five-system sweep's stdout, which CI diffs.
"$BUILD_DIR/bench/bench_five_systems" > tests/golden/FiveSystems.txt

echo
echo "Updated goldens:"
git -c color.status=always status --short tests/golden/ || true
echo "Review with: git diff tests/golden/"
