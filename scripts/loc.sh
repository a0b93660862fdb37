#!/bin/sh
# Prints the module's code size: lines of non-test .go and .s files
# outside bench/ (the repository benchmark's own module). Files are the
# ones git tracks plus any untracked ones not ignored, so a build's
# leftovers do not count. Run from the module root: `make loc`.
set -eu

git ls-files --cached --others --exclude-standard -- '*.go' '*.s' |
	grep -v '^bench/' | grep -v '_test\.go$' |
	while IFS= read -r f; do [ -f "$f" ] && printf '%s\0' "$f"; done |
	xargs -0 cat | wc -l | tr -d ' '
