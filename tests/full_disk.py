"""An ``open`` whose files fail like a full disk, for the atomic-output tests."""

import builtins
import errno


class HalfWriter:
    """File wrapper that stores half of the first write, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def half_writing_open(*args, **kwargs):
    """builtins.open, its file wrapped in a HalfWriter."""
    return HalfWriter(builtins.open(*args, **kwargs))
