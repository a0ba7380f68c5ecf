"""The cache file format stays behind one module: no other module in the
package reads or writes a file."""

import os
import re

import landau

SRC = os.path.dirname(landau.__file__)
FILE_IO = re.compile(r"\bopen\(|np\.load\b|np\.savez|os\.replace|os\.makedirs")


def test_only_cache_module_touches_files():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as f:
            lines = f.read().splitlines()
        hits = ["%s:%d" % (name, i) for i, line in enumerate(lines, 1) if FILE_IO.search(line)]
        if name == "cache.py":
            assert hits, "the pattern no longer matches cache.py's own file access"
        else:
            offenders += hits
    assert offenders == []
