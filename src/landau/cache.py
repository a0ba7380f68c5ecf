"""The sieve cache behind `--cache-dir`: one checked `sieve.npz` file.

The file holds the format version, the sieve limit it was built for and the
primes up to that limit as int64.  It is used only after every member has
been read, which makes zip check each member's CRC, so a missing, damaged,
old-version or too-small file reads as absent and the sieve is rebuilt.
Writers go through a temp file unique to the process and thread, replaced
atomically, so processes may share one directory.  The event table and
delta1 cost too little to rebuild to be worth a file of their own.
"""

import os
import threading
import zipfile

import numpy as np

VERSION = 2


def path(cache_dir):
    return os.path.join(cache_dir, "sieve.npz")


def load(cache_dir, cover):
    """The cached primes, or None unless a readable file of this version
    built for a limit of at least `cover` exists."""
    try:
        with np.load(path(cache_dir), allow_pickle=False) as z:
            arrays = {key: z[key] for key in z.files}
    except (OSError, ValueError, EOFError, RuntimeError, zipfile.BadZipFile):
        return None
    if set(arrays) != {"version", "cover", "primes"}:
        return None
    if int(arrays["version"]) != VERSION or int(arrays["cover"]) < cover:
        return None
    return arrays["primes"]


def save(cache_dir, cover, primes):
    """Write the primes sieved to limit `cover`, replacing any old file."""
    os.makedirs(cache_dir, exist_ok=True)
    target = path(cache_dir)
    tmp = "%s.%d-%d.tmp" % (target, os.getpid(), threading.get_ident())
    try:
        with open(tmp, "wb") as f:
            np.savez(f, version=np.int64(VERSION), cover=np.int64(cover),
                     primes=np.asarray(primes, dtype=np.int64))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
