#!/usr/bin/env python3
"""Lint: fail when a src/ header is reached only from tests/.

A header under src/ is *live* when some live file includes it. The roots
are every source file under bench/, examples/, tools/ and perfbench/,
plus each src/ translation unit without a same-named header. A src/
file foo.cc becomes live with foo.h, so a header kept alive only by its
own implementation file, or by another test-only header, is still
flagged. Anything left over is reached from tests/ or from nowhere: code
no runner, bench or tool would miss.

Usage: tools/test_only_headers.py [repo_root]
       tools/test_only_headers.py --self-test
"""

import os
import re
import sys
import tempfile

ROOT_DIRS = ("bench", "examples", "tools", "perfbench")
SOURCE_EXTS = (".h", ".cc", ".cpp")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

# Headers allowed to be test-only, each with the reason it stays.
ALLOWED = {
    # PowerLimitEnforcer is the hardware-style safety oracle the Stress.*
    # tests check the controller against (throttleEvents() == 0); it must
    # stay independent of the code under test.
    "hal/power_limit.h",
}


def sources(root, top):
    """Yield (path relative to root, text) for each source file."""
    for dirpath, _dirs, files in os.walk(os.path.join(root, top)):
        for name in sorted(files):
            if name.endswith(SOURCE_EXTS):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    yield os.path.relpath(path, root), f.read()


def test_only_headers(root):
    """Return the src/-relative headers no live file includes."""
    includes = {}  # file -> the "..." paths it includes
    headers = set()
    live = []
    for top in ("src",) + ROOT_DIRS:
        for rel, text in sources(root, top):
            # src/ files are keyed as they are included: "dir/file.h".
            key = rel[len("src/"):] if top == "src" else rel
            includes[key] = INCLUDE_RE.findall(text)
            if top != "src":
                live.append(key)
            elif key.endswith(".h"):
                headers.add(key)
            elif not os.path.exists(
                    os.path.join(root, "src", key[:-len(".cc")] + ".h")):
                live.append(key)
    seen = set(live)
    while live:
        for inc in includes.get(live.pop(), ()):
            for reached in (inc, inc[:-2] + ".cc"):
                if reached in includes and reached not in seen:
                    seen.add(reached)
                    live.append(reached)
    return sorted(headers - seen)


def lint(root):
    dead = test_only_headers(root)
    errors = [h + ": included only from tests/ (or nowhere)"
              for h in dead if h not in ALLOWED]
    errors += [h + ": allowed as test-only but no longer is; drop the "
               "entry" for h in sorted(ALLOWED - set(dead))]
    for e in errors:
        print("test-only-headers: " + e, file=sys.stderr)
    return 1 if errors else 0


def self_test():
    files = {
        "src/a/live.h": "",
        "src/a/live.cc": '#include "a/live.h"\n#include "a/chain.h"\n',
        "src/a/chain.h": "",
        "src/a/dead.h": '#include "a/dead_dep.h"\n',
        "src/a/dead.cc": '#include "a/dead.h"\n',
        "src/a/dead_dep.h": "",
        "src/hal/power_limit.h": "",
        "tools/main.cc": '#include "a/live.h"\n',
        "tests/t.cc": '#include "a/dead.h"\n#include "hal/power_limit.h"\n',
    }
    with tempfile.TemporaryDirectory() as root:
        for rel, text in files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        got = test_only_headers(root)
    want = ["a/dead.h", "a/dead_dep.h", "hal/power_limit.h"]
    if got != want:
        print("self-test: got %s, want %s" % (got, want), file=sys.stderr)
        return 1
    print("self-test: ok")
    return 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    status = lint(root)
    if status == 0:
        print("test-only-headers: ok")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
