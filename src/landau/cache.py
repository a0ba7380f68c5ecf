"""The disk cache behind `--cache-dir`: one checked `.npz` file per table.

Each file holds the format version, the coverage it was built for and the
int64 arrays its layout names.  A file is used only after every member has
been read, which makes zip check each member's CRC, so a missing, damaged,
old-version or too-small file reads as absent and its table is rebuilt.
Writers go through a temp file unique to the process and thread, replaced
atomically, so processes may share one directory.
"""

import os
import threading
import zipfile

import numpy as np

VERSION = 2

# the int64 arrays each table's file holds
LAYOUT = {
    "sieve": ("primes",),
    "e2": ("q", "j", "p", "ell"),
    "delta1": ("p", "d"),
}


def path(cache_dir, name):
    return os.path.join(cache_dir, name + ".npz")


def load(cache_dir, name, cover):
    """The arrays of table `name` as a dict, or None unless a readable file
    of this version built for a coverage of at least `cover` exists."""
    try:
        with np.load(path(cache_dir, name), allow_pickle=False) as z:
            arrays = {key: z[key] for key in z.files}
    except (OSError, ValueError, EOFError, RuntimeError, zipfile.BadZipFile):
        return None
    if set(arrays) != {"version", "cover", *LAYOUT[name]}:
        return None
    if int(arrays.pop("version")) != VERSION or int(arrays.pop("cover")) < cover:
        return None
    return arrays


def save(cache_dir, name, cover, **arrays):
    """Write table `name`, built for coverage `cover`, replacing any old file."""
    if set(arrays) != set(LAYOUT[name]):
        raise ValueError("table %s holds %s" % (name, ", ".join(LAYOUT[name])))
    os.makedirs(cache_dir, exist_ok=True)
    target = path(cache_dir, name)
    tmp = "%s.%d-%d.tmp" % (target, os.getpid(), threading.get_ident())
    try:
        with open(tmp, "wb") as f:
            np.savez(
                f,
                version=np.int64(VERSION),
                cover=np.int64(cover),
                **{key: np.asarray(a, dtype=np.int64) for key, a in arrays.items()},
            )
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
