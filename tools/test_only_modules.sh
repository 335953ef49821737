#!/usr/bin/env bash
# Lists every src/**/*.h that no file in src/, tools/, bench/, examples/ or
# perfbench/ includes, its own .cc aside. Such a module's only callers are
# its tests, so it is dead code (CONTRIBUTING.md, "No test-only modules").
# Exits 1 when the list is non-empty; tests/CMakeLists.txt runs it as the
# ctest SrcHeadersHaveNonTestCallers.
#
# Usage: tools/test_only_modules.sh [REPO_ROOT]
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

orphans="$(
  {
    find src -name '*.h' | sed 's|^src/||; s|^|H |'
    grep -rEo '^[[:space:]]*#[[:space:]]*include[[:space:]]*"[^"]+"' \
      --include='*.h' --include='*.cc' --include='*.cpp' \
      src tools bench examples perfbench |
      sed -E 's|^([^:]*):.*"([^"]+)"$|I \1 \2|'
  } | awk '
    $1 == "H" { headers[$2] = 1; next }
    {
      own = "src/" $3
      sub(/\.h$/, ".cc", own)
      if ($2 != own) used[$3] = 1
    }
    END { for (h in headers) if (!(h in used)) print "src/" h }
  ' | sort
)"

if [[ -n "${orphans}" ]]; then
  echo "src/ headers included only by their own .cc (test-only modules):"
  echo "${orphans}"
  exit 1
fi
echo "every src/ header has a caller outside tests/"
