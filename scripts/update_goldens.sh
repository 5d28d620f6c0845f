#!/usr/bin/env bash
# Regenerates the golden RunReports and FleetReports in tests/golden/ after
# an intentional behavioral change. Builds the golden test and reruns it in
# update mode, then shows what moved; review and commit the diff like any
# other change.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target golden_report_test

FABACUS_UPDATE_GOLDENS=1 "$BUILD_DIR/tests/golden_report_test"

echo
echo "Updated goldens:"
git -c color.status=always status --short tests/golden/ || true
echo "Review with: git diff tests/golden/"
