"""The on-disk module cache root and its atomic, best-effort writes.

The directory holds netlist pickles
(:func:`repro.eval.experiments.load_netlist`).  ``REPRO_MODULE_CACHE``
overrides the location (default: the repository's ``.cache/modules/``)
and ``0`` disables it.  Other files there (such as ``kernel-*.marshal``
simulation kernels an older version stored) are ignored.
"""

import contextlib
import os
import tempfile
from pathlib import Path


def module_cache_dir():
    """The on-disk module cache directory, or ``None`` when disabled."""
    env = os.environ.get("REPRO_MODULE_CACHE")
    if env == "0":
        return None
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".cache" / "modules"


def write_atomic(path, write):
    """Create ``path`` by calling ``write(fh)`` on a temporary file.

    The temporary file is renamed into place only once ``write``
    returns, so readers never see a partial file; on any failure it is
    removed again.  Caching is best-effort: never raises.
    """
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except Exception:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
