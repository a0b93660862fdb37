#!/bin/sh
# Fails when a package under anna/internal/ is imported by no non-test
# package other than itself: code only its own tests reach is an orphan,
# to be wired into a caller or deleted. The fault-injection harnesses
# named in TEST_SUPPORT exist to be imported by other packages' tests, so
# for them a test import from another package counts. Offline: `go list`
# reads only the module's own source. Run from the module root.
set -eu

TEST_SUPPORT="anna/internal/cluster/faultproxy anna/internal/wal/faultfs"

# One line per package of the module: its import path, then what it
# imports. .Imports leaves test files out; they are the other two.
prod="$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./...)"
tests="$(go list -f '{{.ImportPath}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./...)"

# imported_by LINES PKG: does a line of LINES, other than PKG's own, list PKG?
imported_by() {
	printf '%s\n' "$1" | awk -v p="$2" '
		$1 != p { for (i = 2; i <= NF; i++) if ($i == p) found = 1 }
		END { exit !found }'
}

status=0
for pkg in $(printf '%s\n' "$prod" | awk '$1 ~ /^anna\/internal\// { print $1 }'); do
	imported_by "$prod" "$pkg" && continue
	case " $TEST_SUPPORT " in
	*" $pkg "*) imported_by "$tests" "$pkg" && continue ;;
	esac
	echo "orphan package: $pkg is imported by no non-test package" >&2
	status=1
done
exit $status
